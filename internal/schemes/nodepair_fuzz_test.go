package schemes

import (
	"bytes"
	"encoding/binary"
	"testing"

	"pitract/internal/core"
)

// FuzzDecodeNodePairQuery pins the in-place node-pair decoder to the
// generic codec it replaces on the hot path: for any input it returns the
// same two values as core.DecodeUint64(q, 2), or the same error string.
func FuzzDecodeNodePairQuery(f *testing.F) {
	overlong := bytes.Repeat([]byte{0xFF}, binary.MaxVarintLen64+1)
	f.Add([]byte(nil))                                                              // empty
	f.Add([]byte{0x80})                                                             // truncated first value
	f.Add([]byte{0x05})                                                             // first value only
	f.Add([]byte{0x05, 0x80})                                                       // truncated second value
	f.Add(overlong)                                                                 // overlong first varint
	f.Add(append([]byte{0x01}, overlong...))                                        // overlong second varint
	f.Add(NodePairQuery(3, 7))                                                      // well formed
	f.Add(NodePairQuery(1<<40, 0))                                                  // multi-byte values
	f.Add(append(NodePairQuery(3, 7), 0x00, 0x01))                                  // trailing bytes
	f.Add(core.EncodeUint64(^uint64(0), ^uint64(0)))                                // values past MaxInt64
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02, 0x00}) // 10-byte varint overflow

	f.Fuzz(func(t *testing.T, q []byte) {
		u, v, err := DecodeNodePairQuery(q)
		vs, want := core.DecodeUint64(q, 2)
		if (err == nil) != (want == nil) {
			t.Fatalf("DecodeNodePairQuery(%x) error %v, core.DecodeUint64 error %v", q, err, want)
		}
		if err != nil {
			if err.Error() != want.Error() {
				t.Fatalf("DecodeNodePairQuery(%x) error %q, want %q", q, err, want)
			}
			return
		}
		if u != int(vs[0]) || v != int(vs[1]) {
			t.Fatalf("DecodeNodePairQuery(%x) = (%d,%d), want (%d,%d)", q, u, v, int(vs[0]), int(vs[1]))
		}
		// Accepted input need not be canonical (a uvarint admits padded
		// forms), but its canonical re-encoding must decode the same.
		if u2, v2, err := DecodeNodePairQuery(NodePairQuery(u, v)); err != nil || u2 != u || v2 != v {
			t.Fatalf("re-encoding (%d,%d) decodes to (%d,%d), %v", u, v, u2, v2, err)
		}
	})
}
