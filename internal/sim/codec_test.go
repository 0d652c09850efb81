package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"divlab/internal/cache"
	"divlab/internal/cpu"
	"divlab/internal/dram"
	"divlab/internal/mem"
	"divlab/internal/obs"
	"divlab/internal/workloads"
)

// TestResultCodecRoundTrip runs a real simulation and requires the decoded
// Result to be deep-equal to the original — including the unexported dense
// counters and the nil-vs-allocated state of the footprint maps.
func TestResultCodecRoundTrip(t *testing.T) {
	for _, footprint := range []bool{false, true} {
		cfg := DefaultConfig(20000)
		cfg.CollectFootprint = footprint
		res := RunSingle(workloads.SPEC()[0], MustByName("stride").Factory, cfg)

		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("footprint=%v: marshal: %v", footprint, err)
		}
		var back Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("footprint=%v: unmarshal: %v", footprint, err)
		}
		if !reflect.DeepEqual(res, &back) {
			t.Errorf("footprint=%v: round trip not lossless:\n got %+v\nwant %+v", footprint, back, *res)
		}
		if footprint && back.MissL1Lines == nil {
			t.Error("allocated footprint map decoded as nil")
		}
		if !footprint && back.MissL1Lines != nil {
			t.Error("nil footprint map decoded as allocated")
		}

		// A second encode of the decoded result must be byte-identical: the
		// store's concurrent-writer safety rests on encoding determinism.
		data2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(data2) {
			t.Errorf("footprint=%v: re-encode differs from first encode", footprint)
		}
	}
}

// TestResultCodecBaseline covers the factory-nil (no-prefetch) shape, whose
// owner tables are minimal.
func TestResultCodecBaseline(t *testing.T) {
	res := RunSingle(workloads.SPEC()[0], nil, DefaultConfig(20000))
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Errorf("baseline round trip not lossless")
	}
}

// TestResultCodecRefusesLifecycle: lifecycle state must never be persisted
// lossily — serialization errors out instead.
func TestResultCodecRefusesLifecycle(t *testing.T) {
	res := &Result{Lifecycle: obs.NewLifecycle(1)}
	if _, err := json.Marshal(res); err == nil {
		t.Error("Result with Lifecycle marshaled; want error")
	}
}

// resultWire is the historical reflection-based wire shape of a Result. It
// is the oracle the hand-written codec is checked against: AppendResults
// must write exactly what json.Marshal writes for it, so stores filled
// before and after the codec read the same. A new Result field goes into
// the codec and into this struct and toWire together.
type resultWire struct {
	Core cpu.Result `json:"core"`

	L1Misses    uint64 `json:"l1_misses"`
	L1Secondary uint64 `json:"l1_secondary"`
	L2Misses    uint64 `json:"l2_misses"`
	Traffic     uint64 `json:"traffic"`

	Issued     uint64    `json:"issued"`
	Filtered   uint64    `json:"filtered"`
	Dropped    uint64    `json:"dropped"`
	IssuedDest [3]uint64 `json:"issued_dest"`

	PerOwner    []uint64                          `json:"per_owner"`
	CatIssued   [workloads.NumCategories]uint64   `json:"cat_issued"`
	CatIssuedL1 [workloads.NumCategories]uint64   `json:"cat_issued_l1"`
	PerOwnerCat [][workloads.NumCategories]uint64 `json:"per_owner_cat"`
	CatL1Misses [workloads.NumCategories]uint64   `json:"cat_l1_misses"`
	CatL2Misses [workloads.NumCategories]uint64   `json:"cat_l2_misses"`

	MissL1Lines map[mem.Line]uint32 `json:"miss_l1_lines"`
	MissL2Lines map[mem.Line]uint32 `json:"miss_l2_lines"`
	Attempted   map[mem.Line]uint32 `json:"attempted"`
	IssuedLines map[mem.Line]uint32 `json:"issued_lines"`
	OwnerSlots  []uint16            `json:"owner_slots"`
	Names       map[int]string      `json:"names"`

	L1Stats cache.Stats `json:"l1_stats"`
	L2Stats cache.Stats `json:"l2_stats"`
	DRAM    dram.Stats  `json:"dram"`
}

func toWire(r *Result) resultWire {
	w := resultWire{
		Core: r.Core, L1Misses: r.L1Misses, L1Secondary: r.L1Secondary, L2Misses: r.L2Misses,
		Traffic: r.Traffic, Issued: r.Issued, Filtered: r.Filtered, Dropped: r.Dropped,
		IssuedDest: r.IssuedDest, PerOwner: r.perOwner, CatIssued: r.CatIssued,
		CatIssuedL1: r.CatIssuedL1, PerOwnerCat: r.perOwnerCat, CatL1Misses: r.CatL1Misses,
		CatL2Misses: r.CatL2Misses, MissL1Lines: r.MissL1Lines, MissL2Lines: r.MissL2Lines,
		Attempted: r.Attempted, IssuedLines: r.IssuedLines, Names: r.Names,
		L1Stats: r.L1Stats, L2Stats: r.L2Stats, DRAM: r.DRAM,
	}
	if r.ownerSlots != nil {
		w.OwnerSlots = make([]uint16, len(r.ownerSlots))
		for i, s := range r.ownerSlots {
			w.OwnerSlots[i] = uint16(s)
		}
	}
	return w
}

// oracleBytes is what encoding/json writes for rs through the oracle.
func oracleBytes(t testing.TB, rs []*Result) []byte {
	t.Helper()
	ws := make([]resultWire, len(rs))
	for i, r := range rs {
		ws[i] = toWire(r)
	}
	b, err := json.Marshal(ws)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkAgainstOracle requires AppendResults to equal the oracle byte for
// byte, and DecodeResults to give back rs exactly.
func checkAgainstOracle(t *testing.T, name string, rs []*Result) {
	t.Helper()
	got, err := AppendResults(nil, rs)
	if err != nil {
		t.Fatalf("%s: AppendResults: %v", name, err)
	}
	if want := oracleBytes(t, rs); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendResults differs from encoding/json at byte %d of %d/%d",
			name, firstDiff(got, want), len(got), len(want))
	}
	back, err := DecodeResults(got)
	if err != nil {
		t.Fatalf("%s: DecodeResults: %v", name, err)
	}
	if !reflect.DeepEqual(back, rs) {
		t.Fatalf("%s: decode(encode(r)) != r", name)
	}
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// codecSamples are real results of every shape the store holds: footprint
// on and off, the baseline, a sweep point's parameterised prefetcher and a
// 4-core mix.
func codecSamples(insts uint64) map[string][]*Result {
	w := workloads.SPEC()[0]
	on := DefaultConfig(insts)
	on.CollectFootprint = true
	mix := DefaultConfig(insts)
	mix.Cores = 4
	mix.CollectFootprint = true
	return map[string][]*Result{
		"footprint-off": {RunSingle(w, MustByName("tpc").Factory, DefaultConfig(insts))},
		"footprint-on":  {RunSingle(w, MustByName("tpc").Factory, on)},
		"baseline":      {RunSingle(w, nil, on)},
		"sweep-point":   {RunSingle(w, MustByName("stride:degree=4").Factory, on)},
		"mix":           RunMulti(workloads.Mixes(1, 3)[0], MustByName("tpc").Factory, mix),
	}
}

// TestAppendResultsMatchesEncodingJSON pins the hand-written codec to the
// bytes encoding/json wrote before it, on real results.
func TestAppendResultsMatchesEncodingJSON(t *testing.T) {
	for name, rs := range codecSamples(20000) {
		checkAgainstOracle(t, name, rs)
	}
	cfg := DefaultConfig(10000)
	cfg.CollectFootprint = true
	for _, n := range AllEvaluated() {
		checkAgainstOracle(t, n.Name, []*Result{RunSingle(workloads.SPEC()[1], n.Factory, cfg)})
	}
}

// TestAppendResultsCoversEveryField sets every counter of a Result — each
// field of cpu.Result, cache.Stats and dram.Stats included — to a distinct
// non-zero value by reflection, so a field added to any of them fails here
// until the codec (and the oracle) carry it.
func TestAppendResultsCoversEveryField(t *testing.T) {
	r := &Result{}
	next := uint64(1)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(next * 1_000_003)
			next++
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i), path)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() && f.Name != "Lifecycle" {
					fill(v.Field(i), path+"."+f.Name)
				}
			}
		case reflect.Map:
			if v.Type() != reflect.TypeOf(map[mem.Line]uint32(nil)) {
				t.Fatalf("%s: map type %s not handled by this test", path, v.Type())
			}
			m := map[mem.Line]uint32{}
			for _, k := range []mem.Line{9, 10, 1 << 40, 100, 1<<64 - 1, 0} {
				m[k] = uint32(next)
				next++
			}
			m[mem.Line(next)] = 1<<32 - 1
			v.Set(reflect.ValueOf(m))
		default:
			t.Fatalf("%s: kind %s not handled by this test", path, v.Kind())
		}
	}
	rv := reflect.ValueOf(r).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		switch f.Name {
		case "Lifecycle", "Names", "perOwner", "perOwnerCat", "ownerSlots":
			continue // set below; the tracker never serializes
		}
		if !f.IsExported() {
			t.Fatalf("unexported field %s not handled by this test", f.Name)
		}
		fill(rv.Field(i), f.Name)
	}
	r.Names = map[int]string{0: "none", 1: "tpc", 2: "t2", 10: "ghb:entries=512", 11: `a"b\c<d>&` + "\n\x01\xc3\xa9\xe2\x80\xa8"}
	r.perOwner = []uint64{0, next, next + 1}
	r.perOwnerCat = [][workloads.NumCategories]uint64{{}, {next + 2, next + 3, next + 4}}
	r.ownerSlots = []uint8{0, 1, 255}
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Type().Field(i); f.Name != "Lifecycle" && rv.Field(i).IsZero() {
			t.Fatalf("field %s left zero", f.Name)
		}
	}
	checkAgainstOracle(t, "every-field", []*Result{r})

	// Empty but allocated collections stay allocated.
	empty := &Result{perOwner: []uint64{}, perOwnerCat: [][workloads.NumCategories]uint64{},
		MissL1Lines: map[mem.Line]uint32{}, ownerSlots: []uint8{}, Names: map[int]string{}}
	checkAgainstOracle(t, "empty", []*Result{empty, {}})
}

// TestDecodeResultsRejectsNonCanonical: every spelling AppendResults would
// not write is an error, so a decoded record always re-encodes to itself.
func TestDecodeResultsRejectsNonCanonical(t *testing.T) {
	r := &Result{
		L1Misses:    7,
		MissL1Lines: map[mem.Line]uint32{10: 1, 9: 2},
		ownerSlots:  []uint8{3},
		Names:       map[int]string{1: "tpc", 10: "bop"},
	}
	good, err := AppendResults(nil, []*Result{r})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeResults(good); err != nil {
		t.Fatalf("canonical record rejected: %v", err)
	}
	s := string(good)
	for _, probe := range []string{`"miss_l1_lines":{"10":1,"9":2}`, `"owner_slots":[3]`, `"names":{"1":"tpc","10":"bop"}`, `"l1_misses":7,"l1_secondary":0`} {
		if !strings.Contains(s, probe) {
			t.Fatalf("fixture lost %s: %s", probe, s)
		}
	}
	for name, bad := range map[string]string{
		"whitespace":          strings.Replace(s, `{"core":`, `{ "core":`, 1),
		"trailing newline":    s + "\n",
		"reordered fields":    strings.Replace(s, `"l1_misses":7,"l1_secondary":0`, `"l1_secondary":0,"l1_misses":7`, 1),
		"duplicate field":     strings.Replace(s, `"l1_misses":7,`, `"l1_misses":7,"l1_misses":7,`, 1),
		"unsorted map keys":   strings.Replace(s, `{"10":1,"9":2}`, `{"9":2,"10":1}`, 1),
		"duplicate map key":   strings.Replace(s, `{"10":1,"9":2}`, `{"10":1,"10":1,"9":2}`, 1),
		"unsorted names":      strings.Replace(s, `{"1":"tpc","10":"bop"}`, `{"10":"bop","1":"tpc"}`, 1),
		"leading zero":        strings.Replace(s, `"l1_misses":7`, `"l1_misses":07`, 1),
		"leading zero key":    strings.Replace(s, `"10":1`, `"010":1`, 1),
		"plus sign":           strings.Replace(s, `"l1_misses":7`, `"l1_misses":+7`, 1),
		"fraction":            strings.Replace(s, `"l1_misses":7`, `"l1_misses":7.0`, 1),
		"exponent":            strings.Replace(s, `"l1_misses":7`, `"l1_misses":7e0`, 1),
		"over uint64":         strings.Replace(s, `"l1_misses":7`, `"l1_misses":18446744073709551616`, 1),
		"over uint32":         strings.Replace(s, `"10":1`, `"10":4294967296`, 1),
		"owner slot over 255": strings.Replace(s, `"owner_slots":[3]`, `"owner_slots":[256]`, 1),
		"negative zero id":    strings.Replace(s, `"1":"tpc"`, `"-0":"tpc"`, 1),
		"escaped name":        strings.Replace(s, `"tpc"`, `"\u0074pc"`, 1),
		"short array":         strings.Replace(s, `"issued_dest":[0,0,0]`, `"issued_dest":[0,0]`, 1),
		"null element":        `[null]`,
		"empty object":        `[{}]`,
		"null":                `null`,
		"two arrays":          s + s,
		"trailing comma":      strings.Replace(s, `"owner_slots":[3]`, `"owner_slots":[3,]`, 1),
	} {
		if bad == s {
			t.Fatalf("%s: probe did not change the record", name)
		}
		if rs, err := DecodeResults([]byte(bad)); err == nil {
			t.Errorf("%s: accepted (%d results)", name, len(rs))
		}
	}
}

// FuzzResultCodec: DecodeResults never panics on bytes from disk, and
// whatever it accepts re-encodes to exactly those bytes.
func FuzzResultCodec(f *testing.F) {
	for _, rs := range codecSamples(500) {
		b, err := AppendResults(nil, rs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, b []byte) {
		rs, err := DecodeResults(b)
		if err != nil {
			return
		}
		again, err := AppendResults(nil, rs)
		if err != nil {
			t.Fatalf("decoded results do not encode: %v", err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encode differs at byte %d", firstDiff(again, b))
		}
	})
}

// BenchmarkResultCodec encodes and decodes one footprint-on result, the
// bulk of a warm store's bytes.
func BenchmarkResultCodec(b *testing.B) {
	cfg := DefaultConfig(100_000)
	cfg.CollectFootprint = true
	rs := []*Result{RunSingle(workloads.SPEC()[0], MustByName("tpc").Factory, cfg)}
	data, err := AppendResults(nil, rs)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AppendResults(nil, rs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeResults(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
