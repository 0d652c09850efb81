package cache

// Shadow is an "alternate reality" tag array: a cache with the same geometry
// as a real level but updated only by demand accesses, never by prefetches.
// Comparing the two answers "would this access have hit had no prefetch ever
// been issued?" — the mechanism Sec. V-C uses to attribute prefetch-induced
// (pollution) misses and to assign negative credit to resident prefetched
// lines. No experiment uses it that way: effective accuracy charges
// pollution through paired baseline runs, and Shadow's only caller is the
// demand-only reference model in internal/mem's tests.
type Shadow struct {
	sets    [][]shadowLine
	setMask uint64
	tick    uint64
}

type shadowLine struct {
	tag     Line
	valid   bool
	lastUse uint64
}

// NewShadow builds a shadow tag array mirroring cfg's geometry.
func NewShadow(cfg Config) *Shadow {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]shadowLine, cfg.Sets())
	backing := make([]shadowLine, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Shadow{sets: sets, setMask: uint64(cfg.Sets() - 1)}
}

// Access simulates a demand access in the no-prefetch reality. It returns
// whether the access would have hit, and installs the line on a miss.
func (s *Shadow) Access(lineAddr Line) (hit bool) {
	set := s.sets[lineAddr.Index()&s.setMask]
	s.tick++
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			set[i].lastUse = s.tick
			return true
		}
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = shadowLine{tag: lineAddr, valid: true, lastUse: s.tick}
	return false
}

// Contains reports residence without updating recency.
func (s *Shadow) Contains(lineAddr Line) bool {
	set := s.sets[lineAddr.Index()&s.setMask]
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return true
		}
	}
	return false
}

// Reset clears the array.
func (s *Shadow) Reset() {
	for _, set := range s.sets {
		for i := range set {
			set[i] = shadowLine{}
		}
	}
	s.tick = 0
}
