package core

import (
	"fmt"
	"io"
	"strings"
)

// DumpTree writes a human-readable snapshot of the hierarchy: curves,
// activity, queue occupancy and service split per class. It is a
// debugging and operations aid (the `tc -s class show` of this scheduler).
func (s *Scheduler) DumpTree(w io.Writer) error {
	var dump func(c *Class, depth int) error
	dump = func(c *Class, depth int) error {
		indent := strings.Repeat("  ", depth)
		state := "idle"
		if c.Active() {
			state = "active"
		}
		if c == s.root {
			if _, err := fmt.Fprintf(w, "%sroot [%s] total=%dB active-children=%d\n",
				indent, state, c.hot.total, c.hot.nactive); err != nil {
				return err
			}
		} else {
			var curves []string
			if c.hasRSC {
				curves = append(curves, "rt="+c.rt.sc.String())
			}
			if c.hasFSC {
				curves = append(curves, "ls="+c.fsc.String())
			}
			if c.hasUSC {
				curves = append(curves, "ul="+c.ul.sc.String())
			}
			if _, err := fmt.Fprintf(w, "%s%s [%s] %s\n", indent, c.name, state, strings.Join(curves, " ")); err != nil {
				return err
			}
			if c.IsLeaf() {
				if _, err := fmt.Fprintf(w, "%s  sent=%d total=%dB rt=%dB ls=%dB queued=%d/%dB dropped=%d\n",
					indent, c.sentPkt, c.hot.total, c.hot.rtWork, c.hot.lsWork,
					c.queue.Len(), c.queue.Bytes(), c.queue.Dropped()); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(w, "%s  total=%dB active-children=%d\n",
					indent, c.hot.total, c.hot.nactive); err != nil {
					return err
				}
			}
		}
		for _, ch := range c.child {
			if err := dump(ch, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	return dump(s.root, 0)
}
