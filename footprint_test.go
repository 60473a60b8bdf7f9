package hfsc

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"github.com/netsched/hfsc/internal/core"
)

// classBytesMax bounds the resident heap per class of a built hierarchy:
// the core class record, its hot record, any real-time or upper-limit side
// record, its name-index entry and handle, its name, and its share of the
// child and id slices.
const classBytesMax = 800

// TestClassFootprint builds the paper-scale 4,096-leaf tree (16×16×16,
// every 16th leaf real-time, 16 upper-limited leaves; 4,369 classes with
// the interior levels) through the public API and bounds the heap it
// holds per class after a GC.
func TestClassFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("heap footprints are not meaningful under -race")
	}
	if n := unsafe.Sizeof(core.Class{}); n > 256 {
		t.Errorf("core.Class is %d bytes, want <= 256", n)
	}
	rt, err := ForRealTime(1500, 10*time.Millisecond, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	const fan, rate = 16, 125_000_000
	// Names are made before the baseline: they are the caller's strings,
	// held by the classes.
	names := make([]string, 0, fan+fan*fan+fan*fan*fan)
	for g := 0; g < fan; g++ {
		names = append(names, fmt.Sprintf("g%d", g))
		for sg := 0; sg < fan; sg++ {
			names = append(names, fmt.Sprintf("g%d.%d", g, sg))
			for k := 0; k < fan; k++ {
				names = append(names, fmt.Sprintf("g%d.%d.%d", g, sg, k))
			}
		}
	}
	before := liveHeap()
	s := New(Config{LinkRate: rate})
	next := 0
	add := func(parent *Class, cfg ClassConfig) *Class {
		c, err := s.AddClass(parent, names[next], cfg)
		if err != nil {
			t.Fatal(err)
		}
		next++
		return c
	}
	for g := 0; g < fan; g++ {
		gc := add(nil, ClassConfig{LinkShare: Linear(rate / fan)})
		for sg := 0; sg < fan; sg++ {
			sc := add(gc, ClassConfig{LinkShare: Linear(rate / (fan * fan))})
			for k := 0; k < fan; k++ {
				leaf := (g*fan+sg)*fan + k
				cfg := ClassConfig{LinkShare: Linear(rate / (fan * fan * fan))}
				if leaf%fan == 0 {
					cfg.RealTime = rt
				}
				if leaf%fan == fan-1 && (leaf/fan)%fan == 0 {
					cfg.UpperLimit = Linear(4 * rate / (fan * fan * fan))
				}
				add(sc, cfg)
			}
		}
	}
	after := liveHeap()
	classes := len(s.Classes())
	runtime.KeepAlive(s)
	per := float64(after-before) / float64(classes)
	t.Logf("%d classes: %.0f heap bytes per class", classes, per)
	if per > classBytesMax {
		t.Errorf("%.0f heap bytes per class, want <= %d", per, classBytesMax)
	}
}

// liveHeap returns the bytes in live heap objects after a full GC.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
