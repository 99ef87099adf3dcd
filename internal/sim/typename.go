package sim

import "reflect"

// TypeName returns the accounting name of a message body, the key
// CountByType reads: its dynamic type's reflect.Type.String(), or "<nil>"
// for a nil body — exactly what fmt.Sprintf("%T", body) prints. No send
// path calls it: a TypeTally counts by reflect.Type and names types only
// when read.
func TypeName(body any) string { return nameOf(reflect.TypeOf(body)) }

func nameOf(t reflect.Type) string {
	if t == nil {
		return "<nil>"
	}
	return t.String()
}

// TypeTally counts message bodies by dynamic type, the per-type send
// accounting of every substrate. Counting compares reflect.Type values in
// a short list — a protocol has a dozen message types, and the busiest
// drift to the front — so a send neither formats nor hashes a name. It is
// not synchronized: the owner keeps it behind its own lock or on its own
// goroutine. The zero value is an empty tally.
type TypeTally struct {
	counts []typeCount
}

type typeCount struct {
	t reflect.Type
	n int64
}

// Add counts one message body.
func (c *TypeTally) Add(body any) { c.add(reflect.TypeOf(body), 1) }

func (c *TypeTally) add(t reflect.Type, n int64) {
	for i := range c.counts {
		if c.counts[i].t == t {
			c.counts[i].n += n
			if i > 0 { // the busiest types drift to the front
				c.counts[i-1], c.counts[i] = c.counts[i], c.counts[i-1]
			}
			return
		}
	}
	c.counts = append(c.counts, typeCount{t: t, n: n})
}

// Merge adds every count of o to c.
func (c *TypeTally) Merge(o *TypeTally) {
	for _, tc := range o.counts {
		c.add(tc.t, tc.n)
	}
}

// Count returns the number of bodies counted whose TypeName is name.
func (c *TypeTally) Count(name string) int64 {
	var n int64
	for _, tc := range c.counts {
		if nameOf(tc.t) == name {
			n += tc.n
		}
	}
	return n
}

// EachName calls f with the TypeName of every type counted.
func (c *TypeTally) EachName(f func(name string)) {
	for _, tc := range c.counts {
		f(nameOf(tc.t))
	}
}

// Reset zeroes the tally, keeping its storage.
func (c *TypeTally) Reset() { c.counts = c.counts[:0] }
