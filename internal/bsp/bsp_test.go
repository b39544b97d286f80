package bsp

import (
	"sync/atomic"
	"testing"
)

func TestLaunchRunsEveryThreadOnce(t *testing.T) {
	m := New()
	n := 100000
	hits := make([]int32, n)
	m.Launch(n, func(lo, hi int) {
		for tid := lo; tid < hi; tid++ {
			atomic.AddInt32(&hits[tid], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("tid %d ran %d times", i, h)
		}
	}
}

func TestLaunchBarrierOrdering(t *testing.T) {
	// Writes from launch k must be visible to launch k+1 without atomics in
	// the second kernel (the barrier is the synchronization point).
	m := New()
	n := 50000
	a := make([]int64, n)
	b := make([]int64, n)
	m.Launch(n, func(lo, hi int) {
		for tid := lo; tid < hi; tid++ {
			a[tid] = int64(tid) * 2
		}
	})
	m.Launch(n, func(lo, hi int) {
		for tid := lo; tid < hi; tid++ {
			b[tid] = a[tid] + 1
		}
	})
	for i := range b {
		if b[i] != int64(i)*2+1 {
			t.Fatalf("b[%d] = %d", i, b[i])
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	m := New()
	m.Launch(10, func(lo, hi int) {})
	m.Launch(20, func(lo, hi int) {})
	s := m.Stats()
	if s.Launches != 2 {
		t.Fatalf("Launches = %d", s.Launches)
	}
	if s.ThreadsRun != 30 {
		t.Fatalf("ThreadsRun = %d", s.ThreadsRun)
	}
	if s.SimTime != s.KernelTime+2*DefaultLaunchOverhead {
		t.Fatalf("SimTime = %v, want KernelTime %v + 2 launch overheads", s.SimTime, s.KernelTime)
	}
	m.ResetStats()
	if s := m.Stats(); s.Launches != 0 || s.ThreadsRun != 0 || s.SimTime != 0 {
		t.Fatalf("ResetStats left %+v", s)
	}
}

func TestZeroLengthLaunchCounts(t *testing.T) {
	m := New()
	m.Launch(0, func(lo, hi int) { t.Error("kernel ran for n=0") })
	if m.Stats().Launches != 1 {
		t.Fatal("empty launch not counted")
	}
}
