package server

// Accounting pins for the answer lifecycle shared by /v1/query and
// /v1/query/batch: for each endpoint and each way an answer can end —
// exact, degraded, failed, or an empty batch under a degraded breaker —
// the status, the response's degraded flag, the per-scheme
// queries/queries_failed/errors counters and degraded_answers must come
// out exactly as below.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pitract/internal/core"
	"pitract/internal/store"
)

// accountingCatalog serves one scheme whose exact and fallback answers
// agree: even first bytes are true, odd ones false, and a 0xFF first byte
// is a malformed query (a client error on either path).
func accountingCatalog() map[string]*core.Scheme {
	verdict := func(q []byte) (bool, error) {
		if len(q) == 0 || q[0] == 0xFF {
			return false, fmt.Errorf("malformed query %v", q)
		}
		return q[0]%2 == 0, nil
	}
	sch := &core.Scheme{
		SchemeName: "test/accounting",
		Preprocess: func(d []byte) ([]byte, error) { return d, nil },
		Answer:     func(pd, q []byte) (bool, error) { return verdict(q) },
		PrepareFallback: func(pd []byte) (core.Answerer, error) {
			return core.AnswererFunc(verdict), nil
		},
	}
	return map[string]*core.Scheme{sch.SchemeName: sch}
}

func TestAnswerAccounting(t *testing.T) {
	ok, bad := []byte{2}, []byte{0xFF}
	for _, tc := range []struct {
		name    string
		batch   bool
		degrade bool // drive the breaker into Degraded before the request
		queries [][]byte

		wantStatus   int
		wantDegraded bool
		wantAnswers  []bool
		wantQueries  int64 // per-scheme "queries"
		wantFailed   int64 // per-scheme "queries_failed"
		wantErrors   int64 // per-scheme "errors"
		wantDegAns   int64 // "degraded_answers"
	}{
		{name: "single/exact", queries: [][]byte{ok},
			wantStatus: http.StatusOK, wantAnswers: []bool{true}, wantQueries: 1},
		{name: "single/degraded", degrade: true, queries: [][]byte{{3}},
			wantStatus: http.StatusOK, wantDegraded: true, wantAnswers: []bool{false}, wantQueries: 1, wantDegAns: 1},
		{name: "single/error", queries: [][]byte{bad},
			wantStatus: http.StatusUnprocessableEntity, wantFailed: 1, wantErrors: 1},
		{name: "single/degraded-error", degrade: true, queries: [][]byte{bad},
			wantStatus: http.StatusUnprocessableEntity, wantFailed: 1, wantErrors: 1},
		{name: "batch/exact", batch: true, queries: [][]byte{ok, {3}, {4}},
			wantStatus: http.StatusOK, wantAnswers: []bool{true, false, true}, wantQueries: 3},
		{name: "batch/degraded", batch: true, degrade: true, queries: [][]byte{ok, {3}, {4}},
			wantStatus: http.StatusOK, wantDegraded: true, wantAnswers: []bool{true, false, true}, wantQueries: 3, wantDegAns: 1},
		{name: "batch/error", batch: true, queries: [][]byte{ok, bad, {4}},
			wantStatus: http.StatusUnprocessableEntity, wantFailed: 3, wantErrors: 1},
		{name: "batch/degraded-error", batch: true, degrade: true, queries: [][]byte{ok, bad},
			wantStatus: http.StatusUnprocessableEntity, wantFailed: 2, wantErrors: 1},
		{name: "batch/empty", batch: true, queries: [][]byte{},
			wantStatus: http.StatusOK, wantAnswers: []bool{}},
		{name: "batch/empty-degraded", batch: true, degrade: true, queries: [][]byte{},
			wantStatus: http.StatusOK, wantAnswers: []bool{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(store.NewRegistry(""), accountingCatalog())
			srv.Registry().SetBreakerConfig(store.BreakerConfig{
				Window: time.Minute, DegradedAfter: 2, OpenAfter: 100,
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			client := ts.Client()
			if code := postJSON(t, client, ts.URL+"/v1/datasets", RegisterRequest{
				ID: "d", Scheme: "test/accounting", Data: []byte{1},
			}, nil); code != http.StatusOK {
				t.Fatalf("register status %d", code)
			}
			if tc.degrade {
				br := srv.Registry().Breaker("d")
				br.OnFailure(false)
				br.OnFailure(false)
				if st := br.State(); st != store.HealthDegraded {
					t.Fatalf("breaker state %v, want degraded", st)
				}
			}

			var resp struct {
				Answer   *bool  `json:"answer"`
				Answers  []bool `json:"answers"`
				Degraded bool   `json:"degraded"`
				Error    string `json:"error"`
			}
			var code int
			if tc.batch {
				code = postJSON(t, client, ts.URL+"/v1/query/batch",
					BatchRequest{Dataset: "d", Queries: tc.queries}, &resp)
			} else {
				code = postJSON(t, client, ts.URL+"/v1/query",
					QueryRequest{Dataset: "d", Query: tc.queries[0]}, &resp)
			}
			if code != tc.wantStatus {
				t.Fatalf("status %d (%s), want %d", code, resp.Error, tc.wantStatus)
			}
			if resp.Degraded != tc.wantDegraded {
				t.Errorf("degraded = %v, want %v", resp.Degraded, tc.wantDegraded)
			}
			if tc.wantStatus == http.StatusOK {
				got := resp.Answers
				if !tc.batch {
					if resp.Answer == nil {
						t.Fatal("single answer missing from the response")
					}
					got = []bool{*resp.Answer}
				}
				if fmt.Sprint(got) != fmt.Sprint(tc.wantAnswers) {
					t.Errorf("answers %v, want %v", got, tc.wantAnswers)
				}
			}

			var stats StatsResponse
			if code := getJSON(t, client, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
				t.Fatalf("stats status %d", code)
			}
			ps := stats.PerScheme["test/accounting"]
			if ps.Queries != tc.wantQueries || ps.QueriesFailed != tc.wantFailed || ps.Errors != tc.wantErrors {
				t.Errorf("queries/queries_failed/errors = %d/%d/%d, want %d/%d/%d",
					ps.Queries, ps.QueriesFailed, ps.Errors, tc.wantQueries, tc.wantFailed, tc.wantErrors)
			}
			if stats.Queries != tc.wantQueries {
				t.Errorf("total queries = %d, want %d", stats.Queries, tc.wantQueries)
			}
			if stats.DegradedAnswers != tc.wantDegAns {
				t.Errorf("degraded_answers = %d, want %d", stats.DegradedAnswers, tc.wantDegAns)
			}
		})
	}
}
