package sim

import (
	"math/bits"

	"divlab/internal/mem"
)

// lineTable accumulates one per-line footprint during a run: an
// open-addressing hash table keyed by line address, in the slab layout of
// the TPC components' pcTable. Entries live in one flat slice — no per-node
// pointers, nothing for the GC to chase — and a lookup is a multiplicative
// hash plus a short linear probe. Footprints never delete a line, so the
// table needs no tombstones.
//
// The table is run-local scratch: publish turns it into a map sized to its
// exact entry count, so a finished Result holds no probing headroom and no
// growth slack.
type lineTable struct {
	ents  []lineEntry
	n     int
	shift uint // 64 - log2(len(ents))
}

type lineEntry struct {
	line mem.Line
	v    uint32
}

// emptyLine marks an unused slot. Like cache.invalidTag it is the top of the
// 64-bit line space, which no workload address reaches.
const emptyLine = ^mem.Line(0)

const lineTableMinSize = 1024 // power of two

// at returns a pointer to line's value, inserting a zero value when absent.
// The pointer is valid until the next call, which may grow the slab.
func (t *lineTable) at(line mem.Line) *uint32 {
	if t.n*4 >= len(t.ents)*3 {
		t.grow()
	}
	mask := uint64(len(t.ents) - 1)
	for i := (uint64(line) * 0x9E3779B97F4A7C15) >> t.shift; ; i = (i + 1) & mask {
		e := &t.ents[i]
		if e.line == line {
			return &e.v
		}
		if e.line == emptyLine {
			e.line = line
			t.n++
			return &e.v
		}
	}
}

// grow doubles the slab (or makes the first one) and rehashes every entry.
func (t *lineTable) grow() {
	old := t.ents
	size := max(2*len(old), lineTableMinSize)
	//lint:allow hotalloc -- amortized doubling of the per-run footprint table (CollectFootprint only)
	t.ents = make([]lineEntry, size)
	for i := range t.ents {
		t.ents[i].line = emptyLine
	}
	t.shift = uint(bits.LeadingZeros64(uint64(size))) + 1
	t.n = 0
	for _, e := range old {
		if e.line != emptyLine {
			*t.at(e.line) = e.v
		}
	}
}

// publish returns the table's contents as a map made for its exact entry
// count, and releases the slab.
func (t *lineTable) publish() map[mem.Line]uint32 {
	m := make(map[mem.Line]uint32, t.n)
	for _, e := range t.ents {
		if e.line != emptyLine {
			m[e.line] = e.v
		}
	}
	*t = lineTable{}
	return m
}

// footprint holds a run's four per-line footprints (Config.CollectFootprint).
type footprint struct {
	missL1, missL2, attempted, issued lineTable
}

// publish stores the footprints into res as exact-size maps. An enabled
// footprint publishes non-nil maps even when empty, so a stored result keeps
// telling footprint-on ({}) from footprint-off (null).
func (f *footprint) publish(res *Result) {
	res.MissL1Lines = f.missL1.publish()
	res.MissL2Lines = f.missL2.publish()
	res.Attempted = f.attempted.publish()
	res.IssuedLines = f.issued.publish()
}
