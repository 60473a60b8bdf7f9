package tcconf

import (
	"strings"
	"testing"

	"github.com/netsched/hfsc/internal/core"
)

// FuzzParse feeds arbitrary text through the tc-style parser and, when it
// is accepted, through the scheduler builder: neither may panic, and a
// built scheduler must satisfy its structural invariants.
func FuzzParse(f *testing.F) {
	f.Add(sample)
	f.Add("link 1mbit\nclass add parent root classid 1:1 hfsc ls rate 1mbit\n")
	f.Add("link 10mbit\nclass add parent root classid 1:1 hfsc rt umax 1500b dmax 5ms rate 64kbit ls m1 2mbit d 5ms m2 1mbit ul rate 5mbit\n")
	f.Add("link 0\nclass add parent root classid 1:1 hfsc sc rate 0")
	for _, s := range []string{
		"class add parent root classid 1:1 hfsc ls rate 1mbit",
		"link 1mbit\nclass add parent root classid 1:1 hfsc ls m1 1mbit",
		"link 1mbit\nclass add parent root classid 1:1 hfsc ls umax 100b rate 1mbit",
		"link 1mbit\nqdisc add root handle 1: hfsc default 10",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		sch, _, err := spec.BuildHFSC(core.Options{})
		if err != nil {
			return
		}
		if err := sch.CheckInvariants(); err != nil {
			t.Fatalf("invariants after build: %v", err)
		}
	})
}
