package sim

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"divlab/internal/cache"
	"divlab/internal/cjson"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/workloads"
)

// The result codec: the store payload of a runner.results/v1 record is a
// JSON array of Result objects, written and read here in one pass with no
// reflection. The bytes are those encoding/json wrote for the historical
// reflection-based wire struct, kept as the oracle in codec_test.go:
//
//	{"core":{"Insts":...},"l1_misses":...,...,"names":{...},"l1_stats":{...},"l2_stats":{...},"dram":{...}}
//
// Fields appear in that fixed order with no whitespace; counter structs use
// their Go field names; map keys are decimal strings sorted as strings.
// Losslessness contract: every field round-trips bit-exactly, and the line
// maps and dense slices keep their nil-vs-allocated state (null vs {} or []),
// which consumers distinguish. ownerSlots is written as numbers, not base64.
//
// The decoder accepts only the encoder's spelling, so any byte string that
// decodes re-encodes to itself; anything else is an error, never a partial
// or nil Result.

// AppendResults appends the JSON array of rs to dst. It fails on a nil
// Result, on one carrying a Lifecycle tracker (an in-process object graph the
// store must never hold a lossy rendering of), and on a component name that
// is not valid UTF-8 (it could not be read back).
func AppendResults(dst []byte, rs []*Result) ([]byte, error) {
	dst = append(dst, '[')
	for i, r := range rs {
		switch {
		case r == nil:
			return nil, errors.New("sim: cannot encode a nil Result")
		case r.Lifecycle != nil:
			return nil, errors.New("sim: Result with attached Lifecycle is not serializable")
		}
		for _, n := range r.Names {
			if !utf8.ValidString(n) {
				return nil, fmt.Errorf("sim: component name %q is not valid UTF-8", n)
			}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendResult(dst, r)
	}
	return append(dst, ']'), nil
}

// DecodeResults reads a JSON array written by AppendResults. Any other
// spelling — whitespace, reordered or duplicate fields, unsorted map keys,
// leading zeros, out-of-range values, null elements — is an error.
func DecodeResults(b []byte) ([]*Result, error) {
	d := cjson.NewDecoder(b)
	var rs []*Result
	d.Byte('[')
	for i := 0; d.More(']', i); i++ {
		rs = append(rs, decodeResult(d))
	}
	d.End()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("sim: decode results: %w", err)
	}
	return rs, nil
}

// MarshalJSON encodes r with AppendResults.
func (r *Result) MarshalJSON() ([]byte, error) {
	b, err := AppendResults(nil, []*Result{r})
	if err != nil {
		return nil, err
	}
	return b[1 : len(b)-1], nil
}

// UnmarshalJSON decodes one Result with DecodeResults.
func (r *Result) UnmarshalJSON(data []byte) error {
	rs, err := DecodeResults(append(append([]byte{'['}, data...), ']'))
	if err != nil {
		return err
	}
	if len(rs) != 1 {
		return fmt.Errorf("sim: decode result: %d values, want 1", len(rs))
	}
	*r = *rs[0]
	return nil
}

// counter is one uint64 field of a counter struct, with its wire key.
type counter struct {
	key string // `"Name":`
	v   *uint64
}

func coreCounters(c *cpu.Result) [6]counter {
	return [...]counter{{`"Insts":`, &c.Insts}, {`"Cycles":`, &c.Cycles}, {`"Loads":`, &c.Loads},
		{`"Stores":`, &c.Stores}, {`"Branches":`, &c.Branches}, {`"Mispredicts":`, &c.Mispredicts}}
}

func cacheCounters(s *cache.Stats) [8]counter {
	return [...]counter{{`"Accesses":`, &s.Accesses}, {`"Hits":`, &s.Hits}, {`"Misses":`, &s.Misses},
		{`"SecondaryMisses":`, &s.SecondaryMisses}, {`"PrefetchFills":`, &s.PrefetchFills},
		{`"DemandFills":`, &s.DemandFills}, {`"PrefetchHits":`, &s.PrefetchHits},
		{`"PrefetchedEvictedUnused":`, &s.PrefetchedEvictedUnused}}
}

func dramCounters(s *dram.Stats) [8]counter {
	return [...]counter{{`"Reads":`, &s.Reads}, {`"Writes":`, &s.Writes}, {`"PrefetchReads":`, &s.PrefetchReads},
		{`"RowHits":`, &s.RowHits}, {`"RowMisses":`, &s.RowMisses}, {`"RowConflicts":`, &s.RowConflicts},
		{`"DroppedPrefetches":`, &s.DroppedPrefetches}, {`"QueueFullWaits":`, &s.QueueFullWaits}}
}

// appendResult writes one Result object.
func appendResult(dst []byte, r *Result) []byte {
	core := coreCounters(&r.Core)
	dst = appendCounters(append(dst, `{"core":`...), core[:])
	dst = strconv.AppendUint(append(dst, `,"l1_misses":`...), r.L1Misses, 10)
	dst = strconv.AppendUint(append(dst, `,"l1_secondary":`...), r.L1Secondary, 10)
	dst = strconv.AppendUint(append(dst, `,"l2_misses":`...), r.L2Misses, 10)
	dst = strconv.AppendUint(append(dst, `,"traffic":`...), r.Traffic, 10)
	dst = strconv.AppendUint(append(dst, `,"issued":`...), r.Issued, 10)
	dst = strconv.AppendUint(append(dst, `,"filtered":`...), r.Filtered, 10)
	dst = strconv.AppendUint(append(dst, `,"dropped":`...), r.Dropped, 10)
	dst = appendUints(append(dst, `,"issued_dest":`...), r.IssuedDest[:])
	dst = appendUintSlice(append(dst, `,"per_owner":`...), r.perOwner)
	dst = appendUints(append(dst, `,"cat_issued":`...), r.CatIssued[:])
	dst = appendUints(append(dst, `,"cat_issued_l1":`...), r.CatIssuedL1[:])
	dst = append(dst, `,"per_owner_cat":`...)
	if r.perOwnerCat == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.perOwnerCat {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendUints(dst, r.perOwnerCat[i][:])
		}
		dst = append(dst, ']')
	}
	dst = appendUints(append(dst, `,"cat_l1_misses":`...), r.CatL1Misses[:])
	dst = appendUints(append(dst, `,"cat_l2_misses":`...), r.CatL2Misses[:])
	dst = appendLineMap(append(dst, `,"miss_l1_lines":`...), r.MissL1Lines)
	dst = appendLineMap(append(dst, `,"miss_l2_lines":`...), r.MissL2Lines)
	dst = appendLineMap(append(dst, `,"attempted":`...), r.Attempted)
	dst = appendLineMap(append(dst, `,"issued_lines":`...), r.IssuedLines)
	dst = append(dst, `,"owner_slots":`...)
	if r.ownerSlots == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, s := range r.ownerSlots {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, uint64(s), 10)
		}
		dst = append(dst, ']')
	}
	dst = appendNames(append(dst, `,"names":`...), r.Names)
	l1, l2, dr := cacheCounters(&r.L1Stats), cacheCounters(&r.L2Stats), dramCounters(&r.DRAM)
	dst = appendCounters(append(dst, `,"l1_stats":`...), l1[:])
	dst = appendCounters(append(dst, `,"l2_stats":`...), l2[:])
	dst = appendCounters(append(dst, `,"dram":`...), dr[:])
	return append(dst, '}')
}

func decodeResult(d *cjson.Decoder) *Result {
	r := &Result{}
	core := coreCounters(&r.Core)
	d.Lit(`{"core":`)
	decodeCounters(d, core[:])
	d.Lit(`,"l1_misses":`)
	r.L1Misses = d.Uint(math.MaxUint64)
	d.Lit(`,"l1_secondary":`)
	r.L1Secondary = d.Uint(math.MaxUint64)
	d.Lit(`,"l2_misses":`)
	r.L2Misses = d.Uint(math.MaxUint64)
	d.Lit(`,"traffic":`)
	r.Traffic = d.Uint(math.MaxUint64)
	d.Lit(`,"issued":`)
	r.Issued = d.Uint(math.MaxUint64)
	d.Lit(`,"filtered":`)
	r.Filtered = d.Uint(math.MaxUint64)
	d.Lit(`,"dropped":`)
	r.Dropped = d.Uint(math.MaxUint64)
	d.Lit(`,"issued_dest":`)
	decodeUints(d, r.IssuedDest[:])
	d.Lit(`,"per_owner":`)
	r.perOwner = decodeUintSlice(d)
	d.Lit(`,"cat_issued":`)
	decodeUints(d, r.CatIssued[:])
	d.Lit(`,"cat_issued_l1":`)
	decodeUints(d, r.CatIssuedL1[:])
	d.Lit(`,"per_owner_cat":`)
	if !d.Null() {
		d.Byte('[')
		r.perOwnerCat = [][workloads.NumCategories]uint64{}
		for i := 0; d.More(']', i); i++ {
			r.perOwnerCat = append(r.perOwnerCat, [workloads.NumCategories]uint64{})
			decodeUints(d, r.perOwnerCat[i][:])
		}
	}
	d.Lit(`,"cat_l1_misses":`)
	decodeUints(d, r.CatL1Misses[:])
	d.Lit(`,"cat_l2_misses":`)
	decodeUints(d, r.CatL2Misses[:])
	d.Lit(`,"miss_l1_lines":`)
	r.MissL1Lines = decodeLineMap(d)
	d.Lit(`,"miss_l2_lines":`)
	r.MissL2Lines = decodeLineMap(d)
	d.Lit(`,"attempted":`)
	r.Attempted = decodeLineMap(d)
	d.Lit(`,"issued_lines":`)
	r.IssuedLines = decodeLineMap(d)
	d.Lit(`,"owner_slots":`)
	if !d.Null() {
		d.Byte('[')
		r.ownerSlots = []uint8{}
		for i := 0; d.More(']', i); i++ {
			r.ownerSlots = append(r.ownerSlots, uint8(d.Uint(math.MaxUint8)))
		}
	}
	d.Lit(`,"names":`)
	r.Names = decodeNames(d)
	l1, l2, dr := cacheCounters(&r.L1Stats), cacheCounters(&r.L2Stats), dramCounters(&r.DRAM)
	d.Lit(`,"l1_stats":`)
	decodeCounters(d, l1[:])
	d.Lit(`,"l2_stats":`)
	decodeCounters(d, l2[:])
	d.Lit(`,"dram":`)
	decodeCounters(d, dr[:])
	d.Byte('}')
	return r
}

func appendCounters(dst []byte, cs []counter) []byte {
	dst = append(dst, '{')
	for i, c := range cs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(append(dst, c.key...), *c.v, 10)
	}
	return append(dst, '}')
}

func decodeCounters(d *cjson.Decoder, cs []counter) {
	d.Byte('{')
	for i, c := range cs {
		if i > 0 {
			d.Byte(',')
		}
		d.Lit(c.key)
		*c.v = d.Uint(math.MaxUint64)
	}
	d.Byte('}')
}

// appendUints writes a fixed-length array.
func appendUints(dst []byte, vs []uint64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(dst, v, 10)
	}
	return append(dst, ']')
}

// decodeUints reads an array of exactly len(vs) elements into vs.
func decodeUints(d *cjson.Decoder, vs []uint64) {
	d.Byte('[')
	for i := range vs {
		if i > 0 {
			d.Byte(',')
		}
		vs[i] = d.Uint(math.MaxUint64)
	}
	d.Byte(']')
}

// appendUintSlice writes a slice: null when nil.
func appendUintSlice(dst []byte, vs []uint64) []byte {
	if vs == nil {
		return append(dst, "null"...)
	}
	return appendUints(dst, vs)
}

func decodeUintSlice(d *cjson.Decoder) []uint64 {
	if d.Null() {
		return nil
	}
	vs := []uint64{}
	d.Byte('[')
	for i := 0; d.More(']', i); i++ {
		vs = append(vs, d.Uint(math.MaxUint64))
	}
	return vs
}

// appendLineMap writes a footprint map as an object keyed by the decimal
// line number, keys in string order: null when nil.
func appendLineMap(dst []byte, m map[mem.Line]uint32) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	keys := make([]mem.Line, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Keys go in decimal-string order. Numbers of one length, which is what
	// real footprints hold, sort the same as numbers.
	slices.Sort(keys)
	if len(keys) > 1 && decimalLen(keys[0]) != decimalLen(keys[len(keys)-1]) {
		slices.SortFunc(keys, func(a, b mem.Line) int {
			var sa, sb [20]byte
			return bytes.Compare(strconv.AppendUint(sa[:0], uint64(a), 10), strconv.AppendUint(sb[:0], uint64(b), 10))
		})
	}
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendUint(append(dst, '"'), uint64(k), 10)
		dst = strconv.AppendUint(append(dst, '"', ':'), uint64(m[k]), 10)
	}
	return append(dst, '}')
}

// decodeLineMap reads a map written by appendLineMap. Keys must ascend
// strictly in string order, which also rules out duplicates.
func decodeLineMap(d *cjson.Decoder) map[mem.Line]uint32 {
	if d.Null() {
		return nil
	}
	d.Byte('{')
	// Keys and values are digits, so the first '}' closes the object and
	// its entries are one more than its commas.
	n := 0
	if rest := d.Rest(); len(rest) > 0 && rest[0] != '}' {
		if end := bytes.IndexByte(rest, '}'); end > 0 {
			n = bytes.Count(rest[:end], []byte{','}) + 1
		}
	}
	m := make(map[mem.Line]uint32, n)
	var prev []byte
	for i := 0; d.More('}', i); i++ {
		d.Byte('"')
		start := d.Pos()
		k := d.Uint(math.MaxUint64)
		key := d.Since(start)
		d.Lit(`":`)
		v := d.Uint(math.MaxUint32)
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			d.Fail("map key %s not above %s", key, prev)
		}
		prev = key
		m[mem.Line(k)] = uint32(v)
	}
	return m
}

// appendNames writes the component-name map, keys in string order: null
// when nil.
func appendNames(dst []byte, m map[int]string) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b int) int { return strings.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	dst = append(dst, '{')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, '"'), int64(id), 10)
		dst = cjson.AppendString(append(dst, '"', ':'), m[id])
	}
	return append(dst, '}')
}

func decodeNames(d *cjson.Decoder) map[int]string {
	if d.Null() {
		return nil
	}
	d.Byte('{')
	m := map[int]string{}
	var prev []byte
	for i := 0; d.More('}', i); i++ {
		d.Byte('"')
		start := d.Pos()
		id := d.Int()
		key := d.Since(start)
		d.Lit(`":`)
		name := d.Str()
		if i > 0 && bytes.Compare(prev, key) >= 0 {
			d.Fail("map key %s not above %s", key, prev)
		}
		prev = key
		m[id] = name
	}
	return m
}

// decimalLen returns the length of l in decimal.
func decimalLen(l mem.Line) int {
	var b [20]byte
	return len(strconv.AppendUint(b[:0], uint64(l), 10))
}
