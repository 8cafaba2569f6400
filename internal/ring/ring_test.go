package ring

import (
	"reflect"
	"testing"
)

func TestUnboundedKeepsEverything(t *testing.T) {
	var r Ring[int]
	const n = 2*chunkLen + 100 // across chunk boundaries
	for i := 0; i < n; i++ {
		r.Push(i)
	}
	if r.Len() != n || r.Dropped() != 0 || r.Cap() != 0 {
		t.Fatalf("Len=%d Dropped=%d Cap=%d", r.Len(), r.Dropped(), r.Cap())
	}
	s := r.Slice()
	for _, i := range []int{0, 15, 16, chunkLen - 1, chunkLen, 2 * chunkLen, n - 1} {
		if *r.At(i) != i || s[i] != i {
			t.Errorf("At(%d) = %d, Slice[%d] = %d", i, *r.At(i), i, s[i])
		}
	}
	// Bounding a chunked ring keeps its newest values.
	r.SetCap(chunkLen + 7)
	if r.Len() != chunkLen+7 || *r.At(0) != n-(chunkLen+7) || *r.At(r.Len() - 1) != n-1 {
		t.Errorf("after SetCap: Len=%d first=%d last=%d", r.Len(), *r.At(0), *r.At(r.Len() - 1))
	}
}

func TestBoundedKeepsNewestOldestFirst(t *testing.T) {
	var r Ring[int]
	r.SetCap(3)
	for i := 0; i < 8; i++ {
		r.Push(i)
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{5, 6, 7}) {
		t.Fatalf("Slice = %v", got)
	}
	if r.Len() != 3 || r.Dropped() != 5 {
		t.Fatalf("Len=%d Dropped=%d, want 3/5", r.Len(), r.Dropped())
	}
	for i, want := range []int{5, 6, 7} {
		if *r.At(i) != want {
			t.Errorf("At(%d) = %d, want %d", i, *r.At(i), want)
		}
	}
	// Slice is a copy: the ring moving on does not disturb it.
	s := r.Slice()
	r.Push(8)
	if s[0] != 5 {
		t.Error("Slice aliases the ring")
	}
}

func TestSetCapOnAWrappedRing(t *testing.T) {
	var r Ring[int]
	r.SetCap(4)
	for i := 0; i < 6; i++ {
		r.Push(i) // holds 2..5, wrapped
	}
	r.SetCap(2) // trims the oldest at once
	if got := r.Slice(); !reflect.DeepEqual(got, []int{4, 5}) || r.Dropped() != 4 {
		t.Fatalf("after shrink: %v dropped %d, want [4 5] dropped 4", got, r.Dropped())
	}
	r.SetCap(0) // unbounding keeps contents and stops evicting
	for i := 6; i < 9; i++ {
		r.Push(i)
	}
	if got := r.Slice(); !reflect.DeepEqual(got, []int{4, 5, 6, 7, 8}) || r.Dropped() != 4 {
		t.Fatalf("after unbound: %v dropped %d", got, r.Dropped())
	}
	r.SetCap(-1)
	if r.Cap() != 0 || r.Len() != 5 {
		t.Errorf("negative cap: Cap=%d Len=%d, want unbounded with contents kept", r.Cap(), r.Len())
	}
}

func TestEmpty(t *testing.T) {
	var r Ring[string]
	if s := r.Slice(); s == nil || len(s) != 0 {
		t.Errorf("empty Slice = %#v, want empty non-nil", s)
	}
}
