package hfsc

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestSpanCounterOwnLine pins the false-sharing contract on PacedQueue:
// every producer adds to spanCtr, so no other field may share any cache
// line its bytes can fall on, whatever the struct's alignment.
func TestSpanCounterOwnLine(t *testing.T) {
	off := unsafe.Offsetof(PacedQueue{}.spanCtr)
	size := unsafe.Sizeof(PacedQueue{}.spanCtr)
	typ := reflect.TypeOf(PacedQueue{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "spanCtr" || f.Name == "_" {
			continue
		}
		if end := f.Offset + f.Type.Size(); end+cacheLine > off+size && f.Offset < off+cacheLine {
			t.Errorf("field %s at [%d, %d) can share a cache line with spanCtr at %d", f.Name, f.Offset, end, off)
		}
	}
}
