package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"divlab/internal/obs"
	"divlab/internal/runner"
	"divlab/internal/sim"
	"divlab/internal/store"
	"divlab/internal/sweep"
	"divlab/internal/workloads"
)

// realRecords returns the stored records of real runs, by name: runner
// results with footprint on and off, the baseline and a 4-core mix, and a
// sweep point.
func realRecords(t testing.TB, insts uint64) map[string]*store.Record {
	t.Helper()
	st := store.NewMem()
	eng := runner.New(runner.WithWorkers(1), runner.WithStore(st))
	w := workloads.SPEC()[0]
	on := sim.DefaultConfig(insts)
	on.CollectFootprint = true
	mix := sim.DefaultConfig(insts)
	mix.Cores = 4
	jobs := map[string]runner.Job{
		"footprint-off": {Workload: w, Prefetcher: sim.MustByName("tpc"), Config: sim.DefaultConfig(insts)},
		"footprint-on":  {Workload: w, Prefetcher: sim.MustByName("tpc"), Config: on},
		"baseline":      {Workload: w, Prefetcher: sim.Baseline(), Config: on},
		"mix":           {Mix: workloads.Mixes(1, 3)[0], Prefetcher: sim.MustByName("tpc"), Config: mix},
	}
	recs := map[string]*store.Record{}
	get := func(name, digest string) {
		rec, err := st.Get(digest)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs[name] = rec
	}
	for name, j := range jobs {
		eng.Run(context.Background(), []runner.Job{j})
		k, _ := runner.KeyOf(j)
		get(name, k.Digest())
	}
	p := sweep.Point{
		ID:   "stride-deg=4",
		Jobs: []runner.Job{{Workload: w, Prefetcher: sim.MustByName("stride:degree=4"), Config: sim.DefaultConfig(insts)}},
		Eval: func(res []*sim.Result) []obs.Row {
			return []obs.Row{{Workload: w.Name, Prefetcher: "stride", Variant: "degree=4", Metric: "ipc", Value: res[0].IPC()}}
		},
	}
	g := sweep.Grid{Name: "record-test", Insts: insts, Points: []sweep.Point{p}}
	if _, err := sweep.Run(context.Background(), g, sweep.Options{Store: st, Engine: eng}); err != nil {
		t.Fatal(err)
	}
	get("sweep-point", g.PointDigest(p))
	return recs
}

// jsonFraming is how records were framed before the hand-built envelope:
// encoding/json's Marshal of the tagged envelope struct.
func jsonFraming(t *testing.T, rec *store.Record) []byte {
	t.Helper()
	body, err := json.Marshal(struct {
		Schema  string          `json:"schema"`
		Digest  string          `json:"digest"`
		Key     string          `json:"key"`
		Kind    string          `json:"kind"`
		Payload json.RawMessage `json:"payload"`
	}{rec.Schema, rec.Digest, rec.Key, rec.Kind, rec.Payload})
	if err != nil {
		t.Fatal(err)
	}
	return frame(body)
}

// TestEncodeMatchesJSONFraming: the hand-built envelope writes the bytes
// encoding/json wrote, so stores from before and after it read the same.
func TestEncodeMatchesJSONFraming(t *testing.T) {
	recs := realRecords(t, 2000)
	recs["escapes"] = &store.Record{Schema: store.SchemaVersion, Digest: "ab12",
		Key: "divlab.key/v1\n\"quoted\" <tag> & \\ \t\x01 caf\xc3\xa9", Kind: store.KindResults, Payload: []byte(`[]`)}
	for name, rec := range recs {
		got, err := store.Encode(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := jsonFraming(t, rec); !bytes.Equal(got, want) {
			t.Errorf("%s: Encode differs from the encoding/json framing:\n got %.200q\nwant %.200q", name, got, want)
		}
		back, err := store.Decode(rec.Digest, got)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Schema != rec.Schema || back.Digest != rec.Digest || back.Key != rec.Key ||
			back.Kind != rec.Kind || !bytes.Equal(back.Payload, rec.Payload) {
			t.Errorf("%s: Decode(Encode(rec)) != rec", name)
		}
	}
}

// TestDecodeRejectsMalformedHeader: only the exact header Encode writes is
// accepted; a CRC-valid body under any other header is corrupt.
func TestDecodeRejectsMalformedHeader(t *testing.T) {
	rec := &store.Record{Schema: store.SchemaVersion, Digest: "d1", Key: "k", Kind: store.KindResults, Payload: []byte(`[]`)}
	data, err := store.Encode(rec)
	if err != nil {
		t.Fatal(err)
	}
	nl := bytes.IndexByte(data, '\n')
	header, body := string(data[:nl]), data[nl:]
	if _, err := store.Decode("d1", data); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	crc := header[strings.LastIndexByte(header, '=')+1:]
	n := fmt.Sprint(len(body) - 1)
	for name, h := range map[string]string{
		"trailing junk":   header + " trailing-junk",
		"trailing space":  header + " ",
		"plus sign":       strings.Replace(header, "len="+n, "len=+"+n, 1),
		"leading zero":    strings.Replace(header, "len="+n, "len=0"+n, 1),
		"missing len":     strings.Replace(header, "len="+n+" ", "", 1),
		"missing crc":     strings.Replace(header, " crc32c="+crc, "", 1),
		"uppercase hex":   strings.Replace(header, crc, strings.ToUpper(crc), 1),
		"short crc":       strings.Replace(header, "crc32c="+crc, "crc32c="+crc[1:], 1),
		"double space":    strings.Replace(header, " len=", "  len=", 1),
		"fields swapped":  fmt.Sprintf("%s crc32c=%s len=%s", store.SchemaVersion, crc, n),
		"schema only":     store.SchemaVersion,
		"no schema":       header[len(store.SchemaVersion)+1:],
		"other schema":    strings.Replace(header, store.SchemaVersion, "divlab.store/v2", 1),
		"crc with prefix": strings.Replace(header, "crc32c="+crc, "crc32c=0x"+crc[2:], 1),
	} {
		if h == header {
			t.Fatalf("%s: probe did not change the header", name)
		}
		if _, err := store.Decode("d1", append([]byte(h), body...)); !store.IsCorrupt(err) {
			t.Errorf("%s: Decode(%q) = %v, want CorruptError", name, h, err)
		}
	}
}

// TestDecodeRejectsNonCanonicalEnvelope: a CRC-valid body that encoding/json
// would read but Encode never writes is corrupt.
func TestDecodeRejectsNonCanonicalEnvelope(t *testing.T) {
	good := `{"schema":"divlab.store/v1","digest":"d1","key":"k","kind":"runner.results/v1","payload":[]}`
	if _, err := store.Decode("d1", frame([]byte(good))); err != nil {
		t.Fatalf("canonical body rejected: %v", err)
	}
	for name, body := range map[string]string{
		"whitespace":       strings.Replace(good, `"key":"k"`, `"key": "k"`, 1),
		"reordered":        `{"digest":"d1","schema":"divlab.store/v1","key":"k","kind":"runner.results/v1","payload":[]}`,
		"escaped key":      strings.Replace(good, `"key":"k"`, `"key":"\u006b"`, 1),
		"empty payload":    strings.Replace(good, `"payload":[]`, `"payload":`, 1),
		"trailing newline": good + "\n",
		"missing kind":     strings.Replace(good, `"kind":"runner.results/v1",`, ``, 1),
		"other digest":     strings.Replace(good, `"digest":"d1"`, `"digest":"d2"`, 1),
	} {
		if _, err := store.Decode("d1", frame([]byte(body))); !store.IsCorrupt(err) {
			t.Errorf("%s: Decode = %v, want CorruptError", name, err)
		}
	}
}

// FuzzStoreDecode: Decode never panics on bytes from disk, and whatever it
// accepts re-encodes to exactly those bytes. Each input is also tried with
// its header rewritten to match its body, so mutations reach the envelope
// parser behind the CRC.
func FuzzStoreDecode(f *testing.F) {
	for _, rec := range realRecords(f, 500) {
		data, err := store.Encode(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec.Digest, data)
	}
	f.Fuzz(func(t *testing.T, digest string, data []byte) {
		_, body, _ := bytes.Cut(data, []byte{'\n'})
		for _, in := range [][]byte{data, frame(body)} {
			rec, err := store.Decode(digest, in)
			if err != nil {
				if !store.IsCorrupt(err) {
					t.Fatalf("Decode error %v is not a CorruptError", err)
				}
				continue
			}
			again, err := store.Encode(rec)
			if err != nil {
				t.Fatalf("decoded record does not encode: %v", err)
			}
			if !bytes.Equal(again, in) {
				t.Fatalf("re-encode differs:\n got %.300q\nwant %.300q", again, in)
			}
		}
	})
}

// frame prefixes body with the header Encode would write for it.
func frame(body []byte) []byte {
	header := fmt.Sprintf("%s len=%d crc32c=%08x\n", store.SchemaVersion, len(body),
		crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
	return append([]byte(header), body...)
}
