// Package store is the persistent content-addressed result store: the tier
// below internal/runner's in-process memo cache that survives the process.
// Records are addressed by a stable digest (runner.Key.Digest for simulation
// results, sweep point digests for sweep rows), wrapped in a versioned
// divlab.store/v1 envelope, and guarded end to end by a CRC so a torn or
// bit-rotted record reads as corrupt — never as a silently wrong result.
//
// Two backends implement Store: FS, the on-disk backend with a
// sharded-by-digest-prefix directory layout and atomic write-rename
// publication, and Mem, an in-memory backend for tests that runs the same
// encode/decode path. Both also grant advisory leases (lockfile-with-expiry
// on FS), which resumable sharded sweeps use so concurrent processes — or a
// re-run after a kill — never duplicate in-flight work.
//
// The store holds only validated, deterministic artifacts: a record's
// payload is a pure function of its digest (the digest covers every input of
// the simulation), so concurrent writers racing on one key write identical
// bytes and last-rename-wins is sound.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"time"
	"unicode/utf8"

	"divlab/internal/cjson"
)

// SchemaVersion identifies the record envelope. Bump it on any incompatible
// change to the framing or the Record shape; old records then read as
// corrupt and are re-simulated rather than misinterpreted.
const SchemaVersion = "divlab.store/v1"

// Well-known record kinds. The store itself never interprets payloads; the
// kind tells readers which decoder to apply.
const (
	// KindResults marks a runner result set: the payload is a JSON array of
	// sim.Result objects (one for single-core runs, one per core for mixes).
	KindResults = "runner.results/v1"
	// KindSweepPoint marks one sweep grid point: the payload is a validated
	// divlab.exp/v1 report holding that point's rows.
	KindSweepPoint = "sweep.point/v1"
)

// Record is one stored artifact: the envelope around a validated payload.
// Its body on disk is the JSON object
//
//	{"schema":...,"digest":...,"key":...,"kind":...,"payload":...}
//
// in that field order with no whitespace, the payload copied verbatim.
type Record struct {
	Schema string
	// Digest is the content address — the versioned hash of the canonical
	// key description below. Get(digest) must return a record whose Digest
	// field matches, or corrupt.
	Digest string
	// Key is the canonical, human-readable description of what the digest
	// hashes (e.g. runner.Key.Canonical()). Readers compare it against their
	// own canonical form, so a digest-version bump or a (vanishingly
	// unlikely) hash collision reads as a miss, never as a wrong result.
	Key string
	// Kind discriminates the payload decoder (KindResults, KindSweepPoint).
	Kind string
	// Payload is the wrapped artifact, stored verbatim: the canonical JSON
	// its kind's encoder writes. The store bounds it but never parses it;
	// readers decode it with their kind's strict decoder.
	Payload []byte
}

// Validate checks the envelope invariants before a Put.
func (r *Record) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("store: record schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Digest == "" {
		return errors.New("store: record has no digest")
	}
	if strings.ContainsAny(r.Digest, "/\\ \t\n") {
		return fmt.Errorf("store: digest %q is not filesystem-safe", r.Digest)
	}
	if r.Kind == "" {
		return errors.New("store: record has no kind")
	}
	for _, f := range []string{r.Schema, r.Digest, r.Key, r.Kind} {
		if !utf8.ValidString(f) {
			return fmt.Errorf("store: envelope field %q is not valid UTF-8", f)
		}
	}
	if len(r.Payload) == 0 {
		return errors.New("store: record has no payload")
	}
	return nil
}

// ErrNotFound is returned by Get when no record exists under the digest.
var ErrNotFound = errors.New("store: record not found")

// CorruptError reports a record that exists but cannot be trusted: truncated
// framing, a CRC mismatch, undecodable JSON, or an envelope whose digest
// disagrees with its address. Callers treat corruption as a miss (and
// typically overwrite on the next Put) but may count or log it.
type CorruptError struct {
	Digest string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: record %s corrupt: %s", e.Digest, e.Reason)
}

// IsCorrupt reports whether err (or anything it wraps) is a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Store is the content-addressed record store. Implementations are safe for
// concurrent use by multiple goroutines; FS is additionally safe across
// processes sharing one directory.
type Store interface {
	// Get returns the record stored under digest. It returns ErrNotFound
	// when absent and a CorruptError when present but unreadable.
	Get(digest string) (*Record, error)
	// Put stores the record under rec.Digest, replacing any existing record.
	// Publication is atomic: concurrent readers see either the old record or
	// the new one, never a torn write.
	Put(rec *Record) error
	// TryLease attempts to acquire an advisory lease on name for ttl.
	// It returns (release, true, nil) on success; (nil, false, nil) when the
	// lease is held, unexpired, by someone else. Expired leases are broken
	// and re-acquired. Leases are advisory: they serialize work, not data —
	// Put never requires one.
	TryLease(name string, ttl time.Duration) (release func() error, ok bool, err error)
}

// headerFormat is the record's header line: schema, body length and the
// body's CRC32-C.
const headerFormat = "%s len=%d crc32c=%08x"

// crcTable is the Castagnoli polynomial, the conventional choice for storage
// checksums (hardware-accelerated on common platforms).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode frames a record for storage: a one-line header
//
//	divlab.store/v1 len=<body length> crc32c=<CRC32-C of the body, 8 lowercase hex>
//
// followed by the JSON body. The header guards the body, so any truncation
// or corruption of either is detected on decode. The bytes are those
// encoding/json's Marshal wrote for the envelope, so stores written before
// and after the hand-built envelope read the same.
func Encode(rec *Record) ([]byte, error) {
	if err := rec.Validate(); err != nil {
		return nil, err
	}
	head := cjson.AppendString(append([]byte(nil), `{"schema":`...), rec.Schema)
	head = cjson.AppendString(append(head, `,"digest":`...), rec.Digest)
	head = cjson.AppendString(append(head, `,"key":`...), rec.Key)
	head = cjson.AppendString(append(head, `,"kind":`...), rec.Kind)
	head = append(head, `,"payload":`...)
	crc := crc32.Update(crc32.Update(crc32.Checksum(head, crcTable), crcTable, rec.Payload), crcTable, []byte{'}'})
	header := fmt.Sprintf(headerFormat+"\n", SchemaVersion, len(head)+len(rec.Payload)+1, crc)
	out := make([]byte, 0, len(header)+len(head)+len(rec.Payload)+1)
	out = append(append(append(append(out, header...), head...), rec.Payload...), '}')
	return out, nil
}

// Decode parses a framed record, verifying the header, length and CRC. The
// digest parameter is the address the record was fetched under; a mismatch
// with the envelope's own digest is corruption. Only the exact bytes Encode
// writes are accepted. The returned Payload aliases data.
func Decode(digest string, data []byte) (*Record, error) {
	corrupt := func(format string, args ...interface{}) error {
		return &CorruptError{Digest: digest, Reason: fmt.Sprintf(format, args...)}
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, corrupt("no header line (truncated at %d bytes)", len(data))
	}
	line := string(data[:nl])
	var n int
	var crc uint32
	var schema string
	if _, err := fmt.Sscanf(line, "%s len=%d crc32c=%x", &schema, &n, &crc); err != nil {
		return nil, corrupt("unparseable header %q", line)
	}
	if schema != SchemaVersion {
		return nil, corrupt("schema %q, want %q", schema, SchemaVersion)
	}
	// Sscanf tolerates trailing input, signs, leading zeros and uppercase
	// hex; only the exact line Encode writes is accepted.
	if fmt.Sprintf(headerFormat, schema, n, crc) != line {
		return nil, corrupt("non-canonical header %q", line)
	}
	body := data[nl+1:]
	if len(body) != n {
		return nil, corrupt("body is %d bytes, header says %d (truncated record)", len(body), n)
	}
	if got := crc32.Checksum(body, crcTable); got != crc {
		return nil, corrupt("crc32c %08x, header says %08x", got, crc)
	}
	var rec Record
	d := cjson.NewDecoder(body)
	d.Lit(`{"schema":`)
	rec.Schema = d.Str()
	d.Lit(`,"digest":`)
	rec.Digest = d.Str()
	d.Lit(`,"key":`)
	rec.Key = d.Str()
	d.Lit(`,"kind":`)
	rec.Kind = d.Str()
	d.Lit(`,"payload":`)
	if err := d.Err(); err != nil {
		return nil, corrupt("undecodable envelope: %v", err)
	}
	if body[len(body)-1] != '}' {
		return nil, corrupt("envelope does not end the body")
	}
	rec.Payload = body[d.Pos() : len(body)-1]
	if err := rec.Validate(); err != nil {
		return nil, corrupt("invalid envelope: %v", err)
	}
	if rec.Digest != digest {
		return nil, corrupt("envelope digest %s does not match address", rec.Digest)
	}
	return &rec, nil
}
