package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// FS is the on-disk backend. Layout under the root:
//
//	objects/<digest[:2]>/<digest>.rec   framed records, sharded by prefix
//	leases/<name>.lock                  advisory leases (JSON: owner, expiry)
//	tmp/                                staging for atomic write-rename
//
// Writes stage into tmp/ and publish with an atomic rename, so readers never
// observe a torn record; because a record's bytes are a pure function of its
// digest, concurrent writers racing on one key rename identical content and
// last-wins is harmless. The backend is safe for concurrent use within a
// process and across processes sharing the directory.
//
// Lease expiry is wall-clock by design (it bounds how long a crashed process
// can block a sweep point); the clock is injectable so tests exercise expiry
// deterministically. Nothing under objects/ depends on time.
type FS struct {
	root string
	now  func() time.Time
}

// seq disambiguates staging filenames within a process.
var seq atomic.Uint64

// OpenFS opens (creating if needed) a store rooted at dir.
func OpenFS(dir string) (*FS, error) {
	for _, sub := range []string{"objects", "leases", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	return &FS{root: dir, now: time.Now}, nil
}

// WithClock replaces the lease clock (tests drive expiry with a fake clock).
func (s *FS) WithClock(now func() time.Time) *FS {
	s.now = now
	return s
}

// Root returns the store's root directory.
func (s *FS) Root() string { return s.root }

func (s *FS) objectPath(digest string) string {
	prefix := digest
	if len(prefix) > 2 {
		prefix = prefix[:2]
	}
	return filepath.Join(s.root, "objects", prefix, digest+".rec")
}

// Get implements Store.
func (s *FS) Get(digest string) (*Record, error) {
	data, err := os.ReadFile(s.objectPath(digest))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("store: read %s: %w", digest, err)
	}
	return Decode(digest, data)
}

// Put implements Store: stage into tmp/, fsync-free atomic rename into place.
func (s *FS) Put(rec *Record) error {
	data, err := Encode(rec)
	if err != nil {
		return err
	}
	final := s.objectPath(rec.Digest)
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fmt.Errorf("store: put %s: %w", rec.Digest, err)
	}
	tmp := filepath.Join(s.root, "tmp", fmt.Sprintf("put-%d-%d", os.Getpid(), seq.Add(1)))
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: stage %s: %w", rec.Digest, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publish %s: %w", rec.Digest, err)
	}
	return nil
}

// Len reports the number of stored records (diagnostics and tests).
func (s *FS) Len() int {
	n := 0
	filepath.WalkDir(filepath.Join(s.root, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".rec") {
			n++
		}
		return nil
	})
	return n
}

// Digests enumerates the stored digests in sorted order.
func (s *FS) Digests() []string {
	var out []string
	filepath.WalkDir(filepath.Join(s.root, "objects"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".rec") {
			out = append(out, strings.TrimSuffix(filepath.Base(path), ".rec"))
		}
		return nil
	})
	sort.Strings(out)
	return out
}

// leaseFile is the on-disk lease content.
type leaseFile struct {
	Owner   string `json:"owner"`
	Expires int64  `json:"expires_unix_ns"`
}

// TryLease implements Store. The lease body is staged in tmp/ and published
// with a hard link, which fails when the lockfile exists: a lockfile is
// either absent or complete, so no reader ever sees a half-written lease.
// An expired (or unreadable) lease is broken under the store's lease guard,
// an exclusive flock that breakers and releasers take, so a breaker that
// read a stale body can never remove the fresh lease of the process that
// broke it first.
func (s *FS) TryLease(name string, ttl time.Duration) (func() error, bool, error) {
	if strings.ContainsAny(name, "/\\ \t\n") {
		return nil, false, fmt.Errorf("store: lease name %q is not filesystem-safe", name)
	}
	if ttl <= 0 {
		return nil, false, fmt.Errorf("store: lease ttl %v must be positive", ttl)
	}
	path := filepath.Join(s.root, "leases", name+".lock")
	token := fmt.Sprintf("%d-%d", os.Getpid(), seq.Add(1))
	body, err := json.Marshal(leaseFile{Owner: token, Expires: s.now().Add(ttl).UnixNano()})
	if err != nil {
		return nil, false, err
	}
	staged := filepath.Join(s.root, "tmp", "lease-"+token)
	if err := os.WriteFile(staged, body, 0o644); err != nil {
		return nil, false, fmt.Errorf("store: stage lease %s: %w", name, err)
	}
	defer os.Remove(staged)
	for attempt := 0; attempt < 2; attempt++ {
		err := os.Link(staged, path)
		if err == nil {
			return func() error { return s.releaseLease(path, token) }, true, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, false, fmt.Errorf("store: lease %s: %w", name, err)
		}
		if data, err := os.ReadFile(path); err == nil && s.fresh(data) {
			return nil, false, nil
		}
		// Stale (or unreadable) lease: break it under the guard, then retry
		// the link; of several breakers, at most one acquires. The lockfile
		// is removed only when it is read under the guard and found stale:
		// while it exists no link can replace it, and only guard holders
		// remove it.
		err = s.withLeaseGuard(func() error {
			data, err := os.ReadFile(path)
			if errors.Is(err, fs.ErrNotExist) || err == nil && s.fresh(data) {
				return nil // broken, or broken and re-acquired, by someone else
			}
			if err != nil {
				return err
			}
			return os.Remove(path)
		})
		if err != nil {
			return nil, false, fmt.Errorf("store: break lease %s: %w", name, err)
		}
	}
	return nil, false, nil
}

// fresh reports whether a lockfile body holds an unexpired lease.
func (s *FS) fresh(body []byte) bool {
	var lf leaseFile
	return json.Unmarshal(body, &lf) == nil && s.now().UnixNano() < lf.Expires
}

// withLeaseGuard runs fn holding the exclusive flock on leases/.guard.
// Closing the file releases the lock.
func (s *FS) withLeaseGuard(fn func() error) error {
	g, err := os.OpenFile(filepath.Join(s.root, "leases", ".guard"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := syscall.Flock(int(g.Fd()), syscall.LOCK_EX); err != nil {
		return err
	}
	return fn()
}

// releaseLease removes the lockfile iff we still own it (an expired lease
// may have been broken and re-acquired by another process; removing theirs
// would double-grant the next acquire). It holds the lease guard, so no
// breaker can swap the lockfile between the ownership check and the remove.
func (s *FS) releaseLease(path, token string) error {
	return s.withLeaseGuard(func() error {
		data, err := os.ReadFile(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		var lf leaseFile
		if json.Unmarshal(data, &lf) != nil || lf.Owner != token {
			return nil // stolen after expiry; not ours to remove
		}
		return os.Remove(path)
	})
}
