// Package core implements the EC-FRM framework itself: it combines a
// candidate code (internal/codes) with a stripe layout (internal/layout)
// into an operational erasure-coding scheme that can encode stripes, rebuild
// lost cells, and plan normal and degraded reads with per-disk load
// accounting.
//
// This is the paper's primary contribution (§IV): the framework is the
// machinery that rewires where a candidate code's elements live — Step-1
// (identify groups) is the layout, Step-2 (construct over each group) is the
// per-group application of the candidate code done here.
package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/codes"
	"repro/internal/gf"
	"repro/internal/layout"
)

// ErrBadRequest flags an invalid read request or stripe input.
var ErrBadRequest = errors.New("core: bad request")

// ErrUnrecoverable flags a failure pattern the scheme cannot decode.
var ErrUnrecoverable = errors.New("core: unrecoverable failure pattern")

// Scheme is a candidate code deployed under a particular layout. The paper's
// nomenclature maps as:
//
//	code=RS,  layout=standard → "RS"
//	code=RS,  layout=rotated  → "R-RS"
//	code=RS,  layout=ecfrm    → "EC-FRM-RS"
//	code=LRC, layout=standard → "LRC", etc.
type Scheme struct {
	code codes.Code
	lay  layout.Layout
	// Capability views of code, resolved once at construction so the hot
	// paths pay no per-call type assertions.
	intoEnc    codes.IntoEncoder       // nil if the code lacks EncodeInto
	intoRec    codes.IntoReconstructor // nil if the code lacks the Into decodes
	positional bool                    // byte-range chunking is valid
	symBytes   int                     // code symbol width — shard-size granularity
}

// NewScheme deploys code under the given layout form.
func NewScheme(code codes.Code, form layout.Form) (*Scheme, error) {
	lay, err := layout.New(form, code.N(), code.K())
	if err != nil {
		return nil, err
	}
	s := &Scheme{code: code, lay: lay}
	s.intoEnc, _ = code.(codes.IntoEncoder)
	s.intoRec, _ = code.(codes.IntoReconstructor)
	if p, ok := code.(codes.PositionalCoder); ok {
		s.positional = p.PositionalKernel()
	}
	s.symBytes = codes.SymbolBytesOf(code)
	return s, nil
}

// MustScheme is NewScheme for known-good forms; it panics on error.
func MustScheme(code codes.Code, form layout.Form) *Scheme {
	s, err := NewScheme(code, form)
	if err != nil {
		panic(err)
	}
	return s
}

// Name combines layout form and code name, e.g. "EC-FRM-RS(6,3)".
func (s *Scheme) Name() string {
	switch s.lay.Name() {
	case "standard":
		return s.code.Name()
	case "rotated":
		return "R-" + s.code.Name()
	case "ecfrm":
		return "EC-FRM-" + s.code.Name()
	default:
		return s.lay.Name() + "-" + s.code.Name()
	}
}

// Code returns the candidate code.
func (s *Scheme) Code() codes.Code { return s.code }

// Layout returns the stripe layout.
func (s *Scheme) Layout() layout.Layout { return s.lay }

// SymbolBytes returns the candidate code's symbol width in bytes — the
// granularity shard sizes must respect: 1 for byte-wise codes, 2 for the
// GF(2^16) generator-matrix codes, 8 for packet-layout CRS and 16 for
// CRS16. store.New rejects element sizes that are not a multiple of it;
// benchmarks round sizes up to one.
func (s *Scheme) SymbolBytes() int { return s.symBytes }

// N returns the number of disks a stripe spans.
func (s *Scheme) N() int { return s.lay.N() }

// DataPerStripe returns the number of data elements per stripe.
func (s *Scheme) DataPerStripe() int { return s.lay.DataPerStripe() }

// CellsPerStripe returns the total number of cells (data+parity) per stripe.
func (s *Scheme) CellsPerStripe() int { return s.lay.Rows() * s.lay.N() }

// FaultTolerance returns the number of arbitrary concurrent disk failures
// the scheme survives — identical to the candidate code's tolerance (§IV-C):
// every disk holds at most one element of each group, so f disk failures
// erase at most f elements per group.
func (s *Scheme) FaultTolerance() int { return s.code.FaultTolerance() }

// StorageOverhead returns total cells divided by data cells — identical to
// the candidate code's n/k (§V-B).
func (s *Scheme) StorageOverhead() float64 {
	return float64(s.CellsPerStripe()) / float64(s.DataPerStripe())
}

// cellIndex flattens a stripe position into the cell slice index.
func (s *Scheme) cellIndex(p layout.Pos) int { return p.Row*s.lay.N() + p.Col }

// EncodeStripe computes a full stripe from its data elements. data must hold
// DataPerStripe() equally sized shards in sequential (user byte) order. The
// result has CellsPerStripe() cells indexed row-major; data shards are
// aliased, parity shards freshly allocated.
func (s *Scheme) EncodeStripe(data [][]byte) ([][]byte, error) {
	dps := s.DataPerStripe()
	if len(data) != dps {
		return nil, fmt.Errorf("%w: got %d data shards, want %d", ErrBadRequest, len(data), dps)
	}
	cells := make([][]byte, s.CellsPerStripe())
	for e, d := range data {
		cells[s.cellIndex(s.lay.DataPos(e))] = d
	}
	k, n := s.code.K(), s.code.N()
	groupData := make([][]byte, k)
	for g := 0; g < s.lay.Groups(); g++ {
		for t := 0; t < k; t++ {
			groupData[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
		}
		parity, err := s.code.Encode(groupData)
		if err != nil {
			return nil, err
		}
		for t := k; t < n; t++ {
			cells[s.cellIndex(s.lay.GroupCell(g, t))] = parity[t-k]
		}
	}
	return cells, nil
}

// EncodeStripeInto computes a full stripe into the caller-provided cells
// slice — the zero-allocation encode path. cells must have CellsPerStripe()
// slots; data shards are aliased into their cells, and each parity cell is
// either reused (when the slot already holds a buffer of the right size) or
// drawn from bufs. Together with a warm Buffers arena this performs no heap
// allocations in steady state.
func (s *Scheme) EncodeStripeInto(bufs *Buffers, cells [][]byte, data [][]byte) error {
	dps := s.DataPerStripe()
	if len(data) != dps {
		return fmt.Errorf("%w: got %d data shards, want %d", ErrBadRequest, len(data), dps)
	}
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	if dps == 0 {
		return nil
	}
	size := len(data[0])
	for e, d := range data {
		cells[s.cellIndex(s.lay.DataPos(e))] = d
	}
	k, n := s.code.K(), s.code.N()
	sc := getStripeScratch(n, k)
	defer putStripeScratch(sc)
	for g := 0; g < s.lay.Groups(); g++ {
		for t := 0; t < k; t++ {
			sc.groupData[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
		}
		for t := k; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if len(cells[idx]) != size {
				cells[idx] = bufs.GetShard(size)
			}
			sc.parity[t-k] = cells[idx]
		}
		if err := s.encodeGroup(sc.parity, sc.groupData); err != nil {
			return err
		}
	}
	return nil
}

// encodeGroup encodes one group's parity into the given cells, using the
// code's allocation-free EncodeInto when available.
func (s *Scheme) encodeGroup(parity, groupData [][]byte) error {
	if s.intoEnc != nil {
		return s.intoEnc.EncodeInto(parity, groupData)
	}
	fresh, err := s.code.Encode(groupData)
	if err != nil {
		return err
	}
	for i := range parity {
		copy(parity[i], fresh[i])
	}
	return nil
}

// encodeGroupRange encodes byte range [lo,hi) of one group's cells. Only
// valid for positional codes (see codes.PositionalCoder); the ParallelCodec
// guards that. cells is the full stripe.
func (s *Scheme) encodeGroupRange(cells [][]byte, g, lo, hi int) error {
	k, n := s.code.K(), s.code.N()
	sc := getStripeScratch(n, k)
	defer putStripeScratch(sc)
	for t := 0; t < k; t++ {
		sc.groupData[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))][lo:hi]
	}
	for t := k; t < n; t++ {
		sc.parity[t-k] = cells[s.cellIndex(s.lay.GroupCell(g, t))][lo:hi]
	}
	return s.encodeGroup(sc.parity, sc.groupData)
}

// ReconstructStripe rebuilds every nil cell of a stripe in place, group by
// group (the paper's §IV-D three-step reconstruction). It fails with
// ErrUnrecoverable if any group's erasure pattern is undecodable.
func (s *Scheme) ReconstructStripe(cells [][]byte) error {
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	n := s.code.N()
	group := make([][]byte, n)
	for g := 0; g < s.lay.Groups(); g++ {
		missing := false
		for t := 0; t < n; t++ {
			group[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
			if group[t] == nil {
				missing = true
			}
		}
		if !missing {
			continue
		}
		if err := s.code.Reconstruct(group); err != nil {
			return fmt.Errorf("%w: group %d: %v", ErrUnrecoverable, g, err)
		}
		for t := 0; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if cells[idx] == nil {
				cells[idx] = group[t]
			}
		}
	}
	return nil
}

// ReconstructStripeInto is ReconstructStripe drawing decode buffers from
// bufs and pooling its scratch — the zero-allocation repair path.
func (s *Scheme) ReconstructStripeInto(bufs *Buffers, cells [][]byte) error {
	if len(cells) != s.CellsPerStripe() {
		return fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	n := s.code.N()
	sc := getStripeScratch(n, s.code.K())
	defer putStripeScratch(sc)
	group := sc.group
	for g := 0; g < s.lay.Groups(); g++ {
		missing := false
		for t := 0; t < n; t++ {
			group[t] = cells[s.cellIndex(s.lay.GroupCell(g, t))]
			if group[t] == nil {
				missing = true
			}
		}
		if !missing {
			continue
		}
		if err := s.reconstructGroup(bufs, group); err != nil {
			return fmt.Errorf("%w: group %d: %v", ErrUnrecoverable, g, err)
		}
		for t := 0; t < n; t++ {
			idx := s.cellIndex(s.lay.GroupCell(g, t))
			if cells[idx] == nil {
				cells[idx] = group[t]
			}
		}
	}
	return nil
}

// reconstructGroup decodes one group in place, using the code's
// allocation-free ReconstructInto when available.
func (s *Scheme) reconstructGroup(bufs *Buffers, group [][]byte) error {
	if s.intoRec != nil {
		return s.intoRec.ReconstructInto(group, bufs)
	}
	return s.code.Reconstruct(group)
}

// RebuildDataInto is RebuildData drawing the decode buffer from bufs and
// pooling its scratch — the zero-allocation degraded-read decode.
func (s *Scheme) RebuildDataInto(bufs *Buffers, cells [][]byte, e int) ([]byte, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	pos := s.lay.DataPos(e)
	idx := s.cellIndex(pos)
	if cells[idx] != nil {
		return cells[idx], nil
	}
	c := s.lay.CellAt(pos)
	n := s.code.N()
	sc := getStripeScratch(n, s.code.K())
	defer putStripeScratch(sc)
	group := sc.group
	for t := 0; t < n; t++ {
		group[t] = cells[s.cellIndex(s.lay.GroupCell(c.Group, t))]
	}
	sc.target[0] = c.Element
	var err error
	if s.intoRec != nil {
		err = s.intoRec.ReconstructElementsInto(group, sc.target[:], bufs)
	} else {
		err = s.code.ReconstructElements(group, sc.target[:])
	}
	if err != nil {
		return nil, fmt.Errorf("%w: element %d: %v", ErrUnrecoverable, e, err)
	}
	cells[idx] = group[c.Element]
	return cells[idx], nil
}

// RebuildData rebuilds the in-stripe data element e from whatever cells of
// its group are present (non-nil) in cells, stores it into cells, and
// returns it. Cells outside e's group are ignored, and other erased cells
// of the group are left nil — this is the targeted decode a degraded read
// performs after fetching only a minimal recovery set.
func (s *Scheme) RebuildData(cells [][]byte, e int) ([]byte, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	pos := s.lay.DataPos(e)
	idx := s.cellIndex(pos)
	if cells[idx] != nil {
		return cells[idx], nil
	}
	c := s.lay.CellAt(pos)
	n := s.code.N()
	group := make([][]byte, n)
	for t := 0; t < n; t++ {
		group[t] = cells[s.cellIndex(s.lay.GroupCell(c.Group, t))]
	}
	if err := s.code.ReconstructElements(group, []int{c.Element}); err != nil {
		return nil, fmt.Errorf("%w: element %d: %v", ErrUnrecoverable, e, err)
	}
	cells[idx] = group[c.Element]
	return cells[idx], nil
}

// UpdateData overwrites the in-stripe data element e with newData and folds
// the change into the group's parity cells via the candidate code's delta
// path (read-modify-write small write). Only e's cell and its group's n-k
// parity cells change; the updated cell indices are returned so callers can
// account the write I/O. The old cell and every parity cell of the group
// must be present (non-nil).
func (s *Scheme) UpdateData(cells [][]byte, e int, newData []byte) ([]int, error) {
	if len(cells) != s.CellsPerStripe() {
		return nil, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	pos := s.lay.DataPos(e)
	idx := s.cellIndex(pos)
	old := cells[idx]
	if old == nil {
		return nil, fmt.Errorf("%w: element %d not present for update", ErrBadRequest, e)
	}
	if len(newData) != len(old) {
		return nil, fmt.Errorf("%w: new data %d bytes, cell holds %d", ErrBadRequest, len(newData), len(old))
	}
	delta := make([]byte, len(old))
	gf.XorSlice(delta, old, newData)
	c := s.lay.CellAt(pos)
	k, n := s.code.K(), s.code.N()
	parity := make([][]byte, n-k)
	touched := []int{idx}
	for t := k; t < n; t++ {
		pIdx := s.cellIndex(s.lay.GroupCell(c.Group, t))
		if cells[pIdx] == nil {
			return nil, fmt.Errorf("%w: parity cell of group %d missing for update", ErrBadRequest, c.Group)
		}
		parity[t-k] = cells[pIdx]
		touched = append(touched, pIdx)
	}
	if err := s.code.ApplyDelta(parity, c.Element, delta); err != nil {
		return nil, err
	}
	copy(cells[idx], newData)
	return touched, nil
}

// DataShards extracts the stripe's data shards in sequential order.
func (s *Scheme) DataShards(cells [][]byte) [][]byte {
	data := make([][]byte, s.DataPerStripe())
	for e := range data {
		data[e] = cells[s.cellIndex(s.lay.DataPos(e))]
	}
	return data
}

// VerifyStripe re-encodes the stripe's data and reports whether every parity
// cell matches. Used by scrubbing and by tests.
func (s *Scheme) VerifyStripe(cells [][]byte) (bool, error) {
	if len(cells) != s.CellsPerStripe() {
		return false, fmt.Errorf("%w: got %d cells, want %d", ErrBadRequest, len(cells), s.CellsPerStripe())
	}
	fresh, err := s.EncodeStripe(s.DataShards(cells))
	if err != nil {
		return false, err
	}
	for i := range cells {
		if len(cells[i]) != len(fresh[i]) {
			return false, nil
		}
		for b := range cells[i] {
			if cells[i][b] != fresh[i][b] {
				return false, nil
			}
		}
	}
	return true, nil
}

// Access is one planned physical element read.
type Access struct {
	Disk   int        // physical disk
	Stripe int        // stripe index
	Pos    layout.Pos // cell within the stripe
}

// Plan is the result of read planning: the set of physical element reads
// (deduplicated — an element read once serves every consumer) and the
// per-disk load they induce.
type Plan struct {
	Requested int // data elements the user asked for
	Reads     []Access
	Loads     []int // per-disk element counts, indexed by disk
	Failed    []int // failed disks the plan avoided (empty for normal reads)
}

// MaxLoad returns the element count on the most loaded disk — the quantity
// the paper's whole design minimizes (§III-B).
func (p *Plan) MaxLoad() int {
	max := 0
	for _, l := range p.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// TotalReads returns the number of distinct physical element reads.
func (p *Plan) TotalReads() int { return len(p.Reads) }

// Cost returns TotalReads/Requested — the paper's "degraded read cost"
// metric (network/IO amplification). 1.0 for any normal read.
func (p *Plan) Cost() float64 {
	if p.Requested == 0 {
		return 0
	}
	return float64(len(p.Reads)) / float64(p.Requested)
}

// ContributingDisks returns how many distinct disks serve at least one read.
func (p *Plan) ContributingDisks() int {
	c := 0
	for _, l := range p.Loads {
		if l > 0 {
			c++
		}
	}
	return c
}

// planner accumulates deduplicated accesses.
type planner struct {
	s      *Scheme
	seen   map[Access]bool
	reads  []Access
	loads  []int
	failed map[int]bool
	// bias, when non-nil, is an external per-disk load offset (e.g. live
	// queue depth) added to the planned load when recovery-set options are
	// compared. It shifts which survivors are chosen without ever appearing
	// in the resulting Plan.Loads.
	bias []int
}

func newPlanner(s *Scheme, failed []int) *planner {
	f := make(map[int]bool, len(failed))
	for _, d := range failed {
		f[d] = true
	}
	return &planner{
		s:      s,
		seen:   make(map[Access]bool),
		loads:  make([]int, s.N()),
		failed: f,
	}
}

func (pl *planner) add(a Access) {
	if pl.seen[a] {
		return
	}
	pl.seen[a] = true
	pl.reads = append(pl.reads, a)
	pl.loads[a.Disk]++
}

// access builds the Access for element t of group g in the given stripe.
func (pl *planner) access(stripe, g, t int) Access {
	pos := pl.s.lay.GroupCell(g, t)
	return Access{Disk: pl.s.lay.Disk(stripe, pos.Col), Stripe: stripe, Pos: pos}
}

// PlanNormalRead plans a read of count sequential data elements starting at
// global data element index start, with all disks healthy. Only data cells
// are touched; the plan's Cost is exactly 1.
func (s *Scheme) PlanNormalRead(start, count int) (*Plan, error) {
	if start < 0 || count <= 0 {
		return nil, fmt.Errorf("%w: start=%d count=%d", ErrBadRequest, start, count)
	}
	pl := newPlanner(s, nil)
	dps := s.DataPerStripe()
	for x := start; x < start+count; x++ {
		stripe, e := x/dps, x%dps
		pos := s.lay.DataPos(e)
		pl.add(Access{Disk: s.lay.Disk(stripe, pos.Col), Stripe: stripe, Pos: pos})
	}
	return &Plan{Requested: count, Reads: pl.reads, Loads: pl.loads}, nil
}

// RecoveryPolicy selects how the degraded-read planner chooses among a lost
// element's candidate recovery sets.
type RecoveryPolicy int

const (
	// PolicyMinCost prefers the set adding the fewest extra reads, with
	// resulting max load as the tie-breaker. This mirrors the paper's
	// Jerasure-based implementation, whose decoder always fetches the
	// canonical minimum-I/O survivors — it is why the paper measures
	// near-identical degraded read *cost* across layout forms (Figure 9a/9b).
	PolicyMinCost RecoveryPolicy = iota
	// PolicyBalance prefers the set minimizing the resulting maximum disk
	// load (the paper's §III-B objective applied to recovery reads too),
	// with extra reads as the tie-breaker. Trades some extra I/O for lower
	// tail latency; kept as an ablation.
	PolicyBalance
)

// PlanDegradedRead plans a read of count sequential data elements starting
// at start while the given disks are failed, using PolicyMinCost. Elements
// on surviving disks are read directly; elements on failed disks are rebuilt
// from a recovery set of their group.
//
// If none of the candidate code's minimal recovery sets avoids the failed
// disks, the planner falls back to reading every surviving element of the
// group, which succeeds whenever the pattern is information-theoretically
// decodable; otherwise ErrUnrecoverable is returned.
func (s *Scheme) PlanDegradedRead(start, count int, failed []int) (*Plan, error) {
	return s.PlanDegradedReadPolicy(start, count, failed, PolicyMinCost)
}

// PlanDegradedReadPolicy is PlanDegradedRead with an explicit recovery-set
// selection policy.
func (s *Scheme) PlanDegradedReadPolicy(start, count int, failed []int, policy RecoveryPolicy) (*Plan, error) {
	return s.PlanDegradedReadBiased(start, count, failed, policy, nil)
}

// PlanDegradedReadBiased is PlanDegradedReadPolicy with an external per-disk
// load bias: bias[d] (typically the disk's live queue depth) is added to
// disk d's planned load whenever candidate recovery sets are compared, so a
// momentarily busy disk loses ties it would otherwise win. A nil bias is the
// unbiased planner; a non-nil bias must have one entry per disk. The bias
// influences only which survivors are selected — Plan.Loads still reports
// the plan's own element counts — and any recovery set produces the same
// decoded bytes, so biased and unbiased plans are byte-equivalent to execute.
func (s *Scheme) PlanDegradedReadBiased(start, count int, failed []int, policy RecoveryPolicy, bias []int) (*Plan, error) {
	if start < 0 || count <= 0 {
		return nil, fmt.Errorf("%w: start=%d count=%d", ErrBadRequest, start, count)
	}
	if bias != nil && len(bias) != s.N() {
		return nil, fmt.Errorf("%w: bias has %d entries for %d disks", ErrBadRequest, len(bias), s.N())
	}
	for _, d := range failed {
		if d < 0 || d >= s.N() {
			return nil, fmt.Errorf("%w: failed disk %d out of [0,%d)", ErrBadRequest, d, s.N())
		}
	}
	pl := newPlanner(s, failed)
	pl.bias = bias
	dps := s.DataPerStripe()

	// Pass 1: direct reads for elements on surviving disks.
	type lost struct{ stripe, g, t int }
	var rebuilds []lost
	for x := start; x < start+count; x++ {
		stripe, e := x/dps, x%dps
		pos := s.lay.DataPos(e)
		disk := s.lay.Disk(stripe, pos.Col)
		if !pl.failed[disk] {
			pl.add(Access{Disk: disk, Stripe: stripe, Pos: pos})
			continue
		}
		c := s.lay.CellAt(pos)
		rebuilds = append(rebuilds, lost{stripe, c.Group, c.Element})
	}

	// Pass 2: choose a recovery set for each lost element per the policy.
	for _, lo := range rebuilds {
		if err := s.planRebuild(pl, lo.stripe, lo.g, lo.t, policy); err != nil {
			return nil, err
		}
	}
	sort.Slice(pl.reads, func(i, j int) bool {
		a, b := pl.reads[i], pl.reads[j]
		if a.Stripe != b.Stripe {
			return a.Stripe < b.Stripe
		}
		if a.Pos.Row != b.Pos.Row {
			return a.Pos.Row < b.Pos.Row
		}
		return a.Pos.Col < b.Pos.Col
	})
	fcopy := append([]int(nil), failed...)
	return &Plan{Requested: count, Reads: pl.reads, Loads: pl.loads, Failed: fcopy}, nil
}

// planRebuild adds the reads needed to rebuild element t of group g in the
// given stripe to the plan.
func (s *Scheme) planRebuild(pl *planner, stripe, g, t int, policy RecoveryPolicy) error {
	type option struct {
		accesses []Access
		maxLoad  int
		newReads int
		order    int
	}
	var best *option
	better := func(a, b *option) bool {
		var ka, kb [3]int
		if policy == PolicyBalance {
			ka = [3]int{a.maxLoad, a.newReads, a.order}
			kb = [3]int{b.maxLoad, b.newReads, b.order}
		} else {
			ka = [3]int{a.newReads, a.maxLoad, a.order}
			kb = [3]int{b.newReads, b.maxLoad, b.order}
		}
		for i := range ka {
			if ka[i] != kb[i] {
				return ka[i] < kb[i]
			}
		}
		return false
	}
	consider := func(set []int, order int) {
		accesses := make([]Access, 0, len(set))
		extra := make(map[int]int)
		newReads := 0
		for _, tt := range set {
			a := pl.access(stripe, g, tt)
			if pl.failed[a.Disk] {
				return // unusable set
			}
			accesses = append(accesses, a)
			if !pl.seen[a] {
				extra[a.Disk]++
				newReads++
			}
		}
		maxLoad := 0
		for d, l := range pl.loads {
			load := l + extra[d]
			if pl.bias != nil {
				load += pl.bias[d]
			}
			if load > maxLoad {
				maxLoad = load
			}
		}
		cand := &option{accesses, maxLoad, newReads, order}
		if best == nil || better(cand, best) {
			best = cand
		}
	}
	for order, set := range s.code.RecoverySets(t) {
		consider(set, order)
	}
	if best == nil {
		// Fallback: read every surviving element of the group and decode
		// generally, if the overall pattern allows it.
		var surviving []int
		var erased []int
		for tt := 0; tt < s.code.N(); tt++ {
			a := pl.access(stripe, g, tt)
			if pl.failed[a.Disk] {
				erased = append(erased, tt)
			} else if tt != t {
				surviving = append(surviving, tt)
			}
		}
		if !s.code.CanRecover(erased) {
			return fmt.Errorf("%w: group %d stripe %d, erased elements %v",
				ErrUnrecoverable, g, stripe, erased)
		}
		consider(surviving, 0)
	}
	if best == nil {
		return fmt.Errorf("%w: group %d stripe %d has no usable recovery set",
			ErrUnrecoverable, g, stripe)
	}
	for _, a := range best.accesses {
		pl.add(a)
	}
	return nil
}
