package freelist

import "testing"

// TestEmptyGetReturnsZero: Get on an empty list returns at once with the zero
// value and false.
func TestEmptyGetReturnsZero(t *testing.T) {
	l := New[*int]()
	if v, ok := l.Get(); v != nil || ok {
		t.Fatalf("Get on an empty list = %v, %v; want nil, false", v, ok)
	}
}

// TestListKeepsCapValues: Cap parked values come back out, each once, and a
// Put on a full list returns at once, drops its value and says so.
func TestListKeepsCapValues(t *testing.T) {
	l := New[int]()
	for i := range Cap + 1 {
		if parked := l.Put(i); parked != (i < Cap) { // the last Put finds the list full
			t.Fatalf("Put %d reports parked=%v with %d values parked", i, parked, len(l))
		}
	}
	if len(l) != Cap {
		t.Fatalf("%d values parked, want %d", len(l), Cap)
	}
	for i := range Cap {
		if v, ok := l.Get(); v != i || !ok {
			t.Fatalf("Get %d = %v, %v; want %d, true", i, v, ok, i)
		}
	}
	if v, ok := l.Get(); ok {
		t.Fatalf("Get past Cap = %v, true: the value Put on a full list was kept", v)
	}
}
