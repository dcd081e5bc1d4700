package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request, so a hung server fails the run
// instead of stalling it.
const requestTimeout = 10 * time.Second

// conn is a lean HTTP/1.1 client on one keep-alive TCP connection: it
// writes pre-encoded requests and parses only the status line,
// Content-Length and body. net/http with JSON costs the generator about
// as much CPU per request as the server spends answering it.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body []byte
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 8192), body: make([]byte, 0, 4096)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// roundTrip sends one request and reads its response. The returned body
// is valid until the next call.
func (c *conn) roundTrip(req []byte) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	return readResponse(c.br, &c.body)
}

var errNoLength = errors.New("loadgen: response without Content-Length")

// readResponse parses one HTTP/1.1 response with a Content-Length body
// into *buf (grown as needed).
func readResponse(br *bufio.Reader, buf *[]byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, fmt.Errorf("loadgen: bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("loadgen: bad status line %q", line)
	}
	length := -1
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		const cl = "content-length:"
		if len(line) > len(cl) && bytes.EqualFold(line[:len(cl)], []byte(cl)) {
			length, err = strconv.Atoi(string(bytes.TrimSpace(line[len(cl):])))
			if err != nil {
				return 0, nil, fmt.Errorf("loadgen: bad Content-Length %q", line)
			}
		}
	}
	if length < 0 {
		return 0, nil, errNoLength
	}
	if cap(*buf) < length {
		*buf = make([]byte, length)
	}
	body := (*buf)[:length]
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, err
	}
	return status, body, nil
}

// jsonUint finds "key":<digits> in a flat JSON object.
func jsonUint(body []byte, key string) (uint64, bool) {
	i := bytes.Index(body, []byte(`"`+key+`":`))
	if i < 0 {
		return 0, false
	}
	i += len(key) + 3
	j := i
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	v, err := strconv.ParseUint(string(body[i:j]), 10, 64)
	return v, err == nil
}

// parseAnswers reads the verdicts of a /v1/query response ("answer") or a
// /v1/query/batch response ("answers", at most 64) into bits, bit i
// answering pair i, and the reported version.
func parseAnswers(body []byte, n int) (bits, version uint64, ok bool) {
	version, ok = jsonUint(body, "version")
	if !ok {
		return 0, 0, false
	}
	key := []byte(`"answer":`)
	if n > 1 {
		key = []byte(`"answers":[`)
	}
	i := bytes.Index(body, key)
	if i < 0 {
		return 0, 0, false
	}
	rest := body[i+len(key):]
	for k := 0; k < n; k++ {
		switch {
		case bytes.HasPrefix(rest, []byte("true")):
			bits |= 1 << uint(k)
			rest = rest[4:]
		case bytes.HasPrefix(rest, []byte("false")):
			rest = rest[5:]
		default:
			return 0, 0, false
		}
		if k < n-1 {
			if len(rest) == 0 || rest[0] != ',' {
				return 0, 0, false
			}
			rest = rest[1:]
		}
	}
	if n > 1 && (len(rest) == 0 || rest[0] != ']') {
		return 0, 0, false
	}
	return bits, version, true
}

// result records one request of the closed loop.
type result struct {
	op           int32  // index of the op in the stream
	patch        uint32 // PATCH number for a PATCH op, counting across stream cycles
	end, lat     int64  // completion time since the loop started, and latency, in ns
	ans, version uint64
	acked, sent  uint32 // see queryVerdict
	status       uint16
	transErr     bool
}

// closedLoop drives a workload's ops over a fixed number of connections:
// each connection sends its next op only when the previous one answered.
// PATCHes go out in order, each after the previous one completed. A stream
// that runs out before the window ends starts over; its PATCHes keep
// counting up, and an even PATCH count per pass keeps the graph's history
// periodic (see oracle.reach).
type closedLoop struct {
	w       *workload
	patches uint32 // PATCH ops per pass of the stream
	res     [][]result
	start   time.Time
	next    atomic.Int64
	stop    atomic.Bool
	wg      sync.WaitGroup

	sent, acked atomic.Uint32 // highest PATCH number sent / acknowledged

	mu          sync.Mutex
	cond        *sync.Cond
	patchesDone uint32
}

func startClosedLoop(w *workload, addr string, conns int) (*closedLoop, error) {
	l := &closedLoop{w: w, res: make([][]result, conns)}
	for _, o := range w.ops {
		if o.kind == opPatch {
			l.patches++
		}
	}
	l.cond = sync.NewCond(&l.mu)
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			for _, c := range cs[:i] {
				c.Close()
			}
			return nil, err
		}
		cs[i] = c
	}
	l.start = time.Now()
	for k, c := range cs {
		l.wg.Add(1)
		go l.worker(k, c, addr)
	}
	return l, nil
}

// halt stops the loop after every connection's in-flight op completes.
func (l *closedLoop) halt() {
	l.stop.Store(true)
	l.wg.Wait()
}

// passes reports how many times the loop started the stream.
func (l *closedLoop) passes() int64 {
	return (l.next.Load()-1)/int64(len(l.w.ops)) + 1
}

func (l *closedLoop) worker(k int, c *conn, addr string) {
	defer l.wg.Done()
	res := make([]result, 0, len(l.w.ops)/len(l.res)+1)
	defer func() {
		l.res[k] = res
		if c != nil {
			c.Close()
		}
	}()
	for !l.stop.Load() {
		i := l.next.Add(1) - 1
		pass, idx := i/int64(len(l.w.ops)), int(i%int64(len(l.w.ops)))
		o := &l.w.ops[idx]
		r := result{op: int32(idx)}
		if o.kind == opPatch {
			r.patch = uint32(pass)*l.patches + uint32(o.patch)
			l.mu.Lock()
			for l.patchesDone < r.patch-1 {
				l.cond.Wait()
			}
			l.mu.Unlock()
			l.sent.Store(r.patch)
		}
		r.acked = l.acked.Load()
		t0 := time.Now()
		status, body, err := c.roundTrip(l.w.request(o))
		t1 := time.Now()
		r.sent = l.sent.Load()
		r.end, r.lat = t1.Sub(l.start).Nanoseconds(), t1.Sub(t0).Nanoseconds()
		if err != nil {
			r.transErr = true
			c.Close()
			if c, err = dial(addr); err != nil {
				c = nil
			}
		} else {
			r.status = uint16(status)
			switch o.kind {
			case opPatch:
				r.version, _ = jsonUint(body, "version")
			default:
				var ok bool
				if r.ans, r.version, ok = parseAnswers(body, o.pairCount()); !ok && status == 200 {
					r.status = 0 // unparseable: counted as a failure
				}
			}
		}
		if o.kind == opPatch {
			if r.status == 200 && r.version == uint64(r.patch) {
				l.acked.Store(r.patch)
			}
			l.mu.Lock()
			l.patchesDone = r.patch
			l.cond.Broadcast()
			l.mu.Unlock()
		}
		res = append(res, r)
		if c == nil {
			l.stop.Store(true)
			return
		}
	}
}
