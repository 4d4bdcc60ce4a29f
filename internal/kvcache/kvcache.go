// Package kvcache implements Punica's paged KvCache layout (§5.4). The
// paper stores the cache as [Σᵢ ⌈Sᵢ/P⌉, L, 2, N, P, D]: the batch
// dimension is outermost and each sequence owns whole pages of P token
// slots, so requests can enter and leave a batch independently
// (continuous batching) and fragmentation is bounded by one partial page
// per sequence.
//
// The Pool tracks pages, bytes and per-sequence occupancy; the serving
// engine consults it for admission ("has enough memory for the new
// request's KvCache") and eviction decisions.
package kvcache

import (
	"fmt"
	"sort"

	"punica/internal/invariant"
)

// DefaultPageSize is the number of token slots per KvCache page. vLLM and
// FlashInfer both default to 16.
const DefaultPageSize = 16

// SeqID identifies one sequence (request) in the pool.
type SeqID int64

// Pool is a paged KvCache allocator. It is not safe for concurrent use;
// the engine serialises access per GPU.
type Pool struct {
	pageSize      int
	bytesPerToken int64
	totalPages    int
	freePages     int
	seqs          map[SeqID]*Seq
}

// Seq is the page record of one resident sequence. An owner that grows
// its sequence every step holds the record (Lookup) and reaches it
// without a map lookup. A record is live from the Allocate or Import of
// its id until the Release or Export of that id, and must not be used
// after: a later Allocate of the same id makes a new record.
type Seq struct {
	tokens int // token slots in use
	pages  int // pages allocated (= ceil(tokens/pageSize))
}

// Tokens returns the token slots the sequence holds.
func (s *Seq) Tokens() int { return s.tokens }

// NewPool builds a pool over capacityBytes of GPU memory for a model
// whose KvCache costs bytesPerToken per token. The page count is
// ⌊capacity / (pageSize × bytesPerToken)⌋.
func NewPool(capacityBytes, bytesPerToken int64, pageSize int) *Pool {
	if pageSize <= 0 {
		panic("kvcache: page size must be positive")
	}
	if bytesPerToken <= 0 {
		panic("kvcache: bytes per token must be positive")
	}
	pageBytes := int64(pageSize) * bytesPerToken
	total := int(capacityBytes / pageBytes)
	if total < 0 {
		total = 0
	}
	return &Pool{
		pageSize:      pageSize,
		bytesPerToken: bytesPerToken,
		totalPages:    total,
		freePages:     total,
		seqs:          make(map[SeqID]*Seq),
	}
}

// PageSize returns the token slots per page.
func (p *Pool) PageSize() int { return p.pageSize }

// TotalPages returns the pool capacity in pages.
func (p *Pool) TotalPages() int { return p.totalPages }

// FreePages returns the currently unallocated pages.
func (p *Pool) FreePages() int { return p.freePages }

// UsedPages returns the allocated pages.
func (p *Pool) UsedPages() int { return p.totalPages - p.freePages }

// UsedBytes returns the bytes held by allocated pages.
func (p *Pool) UsedBytes() int64 {
	return int64(p.UsedPages()) * int64(p.pageSize) * p.bytesPerToken
}

// Sequences returns the number of resident sequences.
func (p *Pool) Sequences() int { return len(p.seqs) }

// PagesFor returns how many pages a sequence of n tokens needs.
func (p *Pool) PagesFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.pageSize - 1) / p.pageSize
}

// CanFit reports whether a new sequence of n tokens would fit right now.
func (p *Pool) CanFit(n int) bool { return p.PagesFor(n) <= p.freePages }

// Allocate reserves pages for a new sequence holding n tokens (the
// prefill allocation). It fails if the id exists or memory is exhausted.
func (p *Pool) Allocate(id SeqID, n int) error {
	if _, ok := p.seqs[id]; ok {
		return fmt.Errorf("kvcache: sequence %d already allocated", id)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: negative token count %d", n)
	}
	need := p.PagesFor(n)
	if need > p.freePages {
		return ErrOutOfMemory
	}
	p.freePages -= need
	p.seqs[id] = &Seq{tokens: n, pages: need}
	p.checkAccounting("Allocate")
	return nil
}

// Extend grows sequence id by n token slots (each decode step appends
// one). A new page is taken only when the partial page fills. It fails
// with ErrOutOfMemory if a required page is unavailable; the sequence is
// left unchanged in that case.
func (p *Pool) Extend(id SeqID, n int) error {
	s, ok := p.seqs[id]
	if !ok {
		return fmt.Errorf("kvcache: unknown sequence %d", id)
	}
	return p.Grow(s, n)
}

// Grow is Extend on a live record of this pool.
func (p *Pool) Grow(s *Seq, n int) error {
	if n < 0 {
		return fmt.Errorf("kvcache: negative extension %d", n)
	}
	newPages := p.PagesFor(s.tokens + n)
	delta := newPages - s.pages
	if delta > p.freePages {
		return ErrOutOfMemory
	}
	p.freePages -= delta
	s.pages = newPages
	s.tokens += n
	p.checkAccounting("Extend")
	return nil
}

// PageFull reports whether the sequence's pages are all full (or it
// holds none), so that appending one token takes a fresh page:
// PagesFor(tokens+1) - PagesFor(tokens) == 1, without the divisions.
func (p *Pool) PageFull(s *Seq) bool { return s.tokens == s.pages*p.pageSize }

// Release frees all pages of sequence id. Releasing an unknown sequence
// is a no-op so that cancellation races are harmless.
func (p *Pool) Release(id SeqID) {
	s, ok := p.seqs[id]
	if !ok {
		return
	}
	p.freePages += s.pages
	delete(p.seqs, id)
	p.checkAccounting("Release")
}

// Handle is the page-exact accounting record of one sequence's KvCache,
// detached from any pool: the currency of deliberate KV migration
// (prefill/decode disaggregation) as opposed to the drop-and-recompute
// crash path. Export produces one, Import redeems it on another pool.
// Bytes is the token payload that actually crosses the link — partial
// pages transfer their occupied slots only, so the transfer-cost model
// charges data moved, not pages reserved.
type Handle struct {
	Seq    SeqID
	Tokens int
	// Pages is the page count the sequence held at export under the
	// source pool's geometry; Import re-derives it for the destination's
	// page size, so handles move between heterogeneous pools.
	Pages int
	Bytes int64
}

// Export removes sequence id from the pool and returns its page-exact
// handle, freeing the pages. It is Release that remembers what it freed:
// the caller owns the handle until a destination pool Imports it (or the
// handle is dropped, modelling a migration abandoned mid-flight — the
// source pages are already free either way, so no state leaks).
func (p *Pool) Export(id SeqID) (Handle, error) {
	s, ok := p.seqs[id]
	if !ok {
		return Handle{}, fmt.Errorf("kvcache: export of unknown sequence %d", id)
	}
	h := Handle{
		Seq:    id,
		Tokens: s.tokens,
		Pages:  s.pages,
		Bytes:  int64(s.tokens) * p.bytesPerToken,
	}
	p.freePages += s.pages
	delete(p.seqs, id)
	p.checkAccounting("Export")
	return h, nil
}

// Import redeems a handle on this pool: the sequence is allocated
// page-exactly for its token count under this pool's geometry. It fails
// if the sequence already exists or memory is exhausted, leaving the
// pool unchanged — the caller may retry elsewhere or fall back to the
// recompute path.
func (p *Pool) Import(h Handle) error {
	if h.Tokens < 0 {
		return fmt.Errorf("kvcache: import with negative token count %d", h.Tokens)
	}
	return p.Allocate(h.Seq, h.Tokens)
}

// checkAccounting verifies the page ledger under the punica_invariants
// build: every page is either free or held by exactly one sequence.
// Compiled out otherwise (invariant.Enabled is a false constant).
func (p *Pool) checkAccounting(op string) {
	if !invariant.Enabled {
		return
	}
	if p.freePages < 0 {
		invariant.Failf("kvcache: negative free pages (%d) after %s", p.freePages, op)
	}
	held := 0
	for _, s := range p.seqs {
		held += s.pages
	}
	if held+p.freePages != p.totalPages {
		invariant.Failf("kvcache: page leak after %s: %d held + %d free != %d total",
			op, held, p.freePages, p.totalPages)
	}
}

// Tokens returns the token count held by sequence id (0 if unknown).
func (p *Pool) Tokens(id SeqID) int {
	if s, ok := p.seqs[id]; ok {
		return s.tokens
	}
	return 0
}

// Lookup returns the live record of sequence id, or nil if it is not
// resident.
func (p *Pool) Lookup(id SeqID) *Seq { return p.seqs[id] }

// Has reports whether sequence id is resident.
func (p *Pool) Has(id SeqID) bool {
	_, ok := p.seqs[id]
	return ok
}

// WastedSlots returns the internal fragmentation: allocated token slots
// not holding a token. Paging bounds this at (pageSize-1) per sequence,
// which is the property §5.4 is after.
func (p *Pool) WastedSlots() int {
	waste := 0
	for _, s := range p.seqs {
		waste += s.pages*p.pageSize - s.tokens
	}
	return waste
}

// IDs returns the resident sequence ids in ascending order.
func (p *Pool) IDs() []SeqID {
	ids := make([]SeqID, 0, len(p.seqs))
	for id := range p.seqs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ErrOutOfMemory reports that the pool cannot satisfy an allocation; the
// scheduler reacts by queueing new requests or migrating old ones (§5.3).
var ErrOutOfMemory = fmt.Errorf("kvcache: out of memory")
