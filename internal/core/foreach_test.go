package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForEach pins the shared index pool: every index runs exactly once
// on success, n = 0 never calls fn, a pool of one runs in order on the
// calling goroutine, parallelism above n is clamped, and under contention
// the reported failure is always the lowest failing index.
func TestForEach(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		for _, par := range []int{-1, 0, 1, 4} {
			idx, err := ForEach(0, par, func(int) error {
				t.Fatal("fn called for n = 0")
				return nil
			})
			if idx != -1 || err != nil {
				t.Fatalf("parallelism %d: ForEach(0) = (%d, %v), want (-1, nil)", par, idx, err)
			}
		}
	})

	t.Run("sequential", func(t *testing.T) {
		var order []int // no lock: a pool of one must not leave the caller
		idx, err := ForEach(5, 1, func(i int) error {
			order = append(order, i)
			return nil
		})
		if idx != -1 || err != nil || fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Fatalf("ForEach(5, 1) = (%d, %v) visiting %v, want in-order [0 1 2 3 4]", idx, err, order)
		}
		order = nil
		boom := errors.New("boom")
		idx, err = ForEach(5, 1, func(i int) error {
			order = append(order, i)
			if i == 2 {
				return boom
			}
			return nil
		})
		if idx != 2 || err != boom || fmt.Sprint(order) != "[0 1 2]" {
			t.Fatalf("failing ForEach(5, 1) = (%d, %v) visiting %v, want (2, boom) stopping at [0 1 2]", idx, err, order)
		}
	})

	t.Run("parallelism-above-n", func(t *testing.T) {
		const n = 3
		var mu sync.Mutex
		seen := map[int]int{}
		idx, err := ForEach(n, 64, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if idx != -1 || err != nil || len(seen) != n {
			t.Fatalf("ForEach(%d, 64) = (%d, %v) over %v, want every index once", n, idx, err, seen)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d ran %d times", i, c)
			}
		}
	})

	t.Run("lowest-failure-wins", func(t *testing.T) {
		const n = 200
		for round := 0; round < 50; round++ {
			var calls atomic.Int64
			idx, err := ForEach(n, 8, func(i int) error {
				calls.Add(1)
				if i%7 == 3 || i == n-1 { // 3, 10, 17, ... all fail
					return fmt.Errorf("index %d", i)
				}
				return nil
			})
			if idx != 3 || err == nil || err.Error() != "index 3" {
				t.Fatalf("round %d: ForEach = (%d, %v), want (3, index 3)", round, idx, err)
			}
			if c := calls.Load(); c >= n {
				t.Fatalf("round %d: %d calls after an early failure, want the pool to stop claiming", round, c)
			}
		}
	})
}
