package main

import (
	"os"
	"testing"
)

func TestParseProcStatCPU(t *testing.T) {
	// The command name holds a space and a ')' to exercise the last-')' rule.
	line := "4242 (pit ract) s) S 1 4242 4242 0 -1 4194560 1234 0 0 0 700 55 0 0 20 0 9 0 123456 1000000 500 18446744073709551615\n"
	got, err := parseProcStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 755 {
		t.Fatalf("utime+stime = %d, want 755", got)
	}
	if _, err := parseProcStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("short stat line accepted")
	}
	// The benchmark's own process parses.
	if _, err := processCPUTicks(os.Getpid()); err != nil {
		t.Fatal(err)
	}
}

func TestParseHostCPUAndSteal(t *testing.T) {
	a, err := parseHostCPU([]byte("cpu  100 0 50 800 10 0 0 40 7 0\ncpu0 1 2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 1000 || a.steal != 40 {
		t.Fatalf("parsed %+v, want total 1000 (guest excluded), steal 40", a)
	}
	b := hostCPU{total: 1200, steal: 70}
	if got := stealPct(a, b); got != 15 {
		t.Fatalf("steal = %v%%, want 15%%", got)
	}
	if got := stealPct(b, b); got != 0 {
		t.Fatalf("steal over no time = %v", got)
	}
	if _, err := parseHostCPU([]byte("intr 1 2 3\n")); err == nil {
		t.Fatal("non-cpu first line accepted")
	}
	if _, err := readHostCPU(); err != nil {
		t.Fatal(err)
	}
}
