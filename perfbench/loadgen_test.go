package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestReadResponseAndParseAnswers(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\ncontent-length: 28\r\n\r\n{\"answer\":true,\"version\":12}" +
		"HTTP/1.1 200 OK\r\nContent-Length: 41\r\n\r\n{\"answers\":[true,false,true],\"version\":3}"
	br := bufio.NewReader(strings.NewReader(raw))
	var buf []byte
	status, body, err := readResponse(br, &buf)
	if err != nil || status != 200 {
		t.Fatalf("status %d err %v", status, err)
	}
	if bits, v, ok := parseAnswers(body, 1); !ok || bits != 1 || v != 12 {
		t.Fatalf("single: %b %d %v", bits, v, ok)
	}
	if _, body, err = readResponse(br, &buf); err != nil {
		t.Fatal(err)
	}
	if bits, v, ok := parseAnswers(body, 3); !ok || bits != 0b101 || v != 3 {
		t.Fatalf("batch: %b %d %v", bits, v, ok)
	}
	if _, _, ok := parseAnswers(body, 4); ok {
		t.Fatal("batch of 3 parsed as 4")
	}
	if _, _, err := readResponse(bufio.NewReader(strings.NewReader("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")), &buf); err != errNoLength {
		t.Fatalf("chunked response: err %v", err)
	}
}

func TestParseStageMetrics(t *testing.T) {
	text := `# TYPE pitract_stage_duration_seconds histogram
pitract_stage_duration_seconds_bucket{stage="admission",le="+Inf"} 23
pitract_stage_duration_seconds_sum{stage="admission"} 0.000031
pitract_stage_duration_seconds_count{stage="admission"} 23
pitract_answer_duration_seconds_sum{scheme="x"} 9
`
	sums, counts := parseStageMetrics([]byte(text))
	if sums["admission"] != 0.000031 || counts["admission"] != 23 || len(sums) != 1 {
		t.Fatalf("sums %v counts %v", sums, counts)
	}
}
