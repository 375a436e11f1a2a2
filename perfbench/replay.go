package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/layout"
	"repro/internal/lrc"
	"repro/internal/placement"
	"repro/internal/rs"
	"repro/internal/store"
)

// Replay holds the in-process replay's per-layer numbers: the recorded GET
// stream re-read through store.Store.ReadAtCtx and re-planned through
// core.Scheme, and the workload's stripes re-encoded and re-decoded.
type Replay struct {
	ReadMs     float64
	Reads      int
	PlanUs     float64
	Plans      int
	DecodeUs   float64
	Decodes    int
	EncodeMBps float64
	EncodedMB  float64
}

// replayScheme builds the scheme the workload's daemon runs (see
// singleScheme and clusterScheme).
func replayScheme(w Workload) (*core.Scheme, error) {
	if w.Cluster {
		c, err := rs.New(6, 3)
		if err != nil {
			return nil, err
		}
		return core.NewScheme(c, layout.FormECFRM)
	}
	c, err := lrc.New(6, 2, 2)
	if err != nil {
		return nil, err
	}
	return core.NewScheme(c, layout.FormECFRM)
}

// replayGroups is the number of stripe groups objects spread across.
func replayGroups(w Workload) int {
	if w.Cluster {
		return 4
	}
	return 1
}

// failedDisks returns group g's disks the workload has lost: those the
// placement puts on the killed node in the cluster, none otherwise.
func failedDisks(w Workload, scheme *core.Scheme, g int) ([]int, error) {
	if !w.Cluster {
		return nil, nil
	}
	nodes := make([]string, clusterNodes)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("node%d", i)
	}
	pm, err := placement.New(replayGroups(w), scheme.N(), nodes)
	if err != nil {
		return nil, err
	}
	return pm.DisksOn(g, killedNode), nil
}

// replayStripes bounds how many stripes the encode/decode replay keeps in
// memory (each is DataPerStripe cells).
const replayStripes = 6

// runReplay rebuilds each group's byte layout in a file-backed store under
// dir (objects at the offsets the daemon acked), fails the workload's lost
// disks, installs its fault plan, and replays gets — seeded-object indices
// in the order the traced run issued them — for at most budget.
func (b *Bench) runReplay(ctx context.Context, dir string, gets []int, budget time.Duration) (Replay, error) {
	var out Replay
	scheme, err := replayScheme(b.W)
	if err != nil {
		return out, err
	}
	stripeBytes := int64(scheme.DataPerStripe()) * cellBytes
	type placedObj struct {
		idx int
		off int64
	}
	groups := make([][]placedObj, replayGroups(b.W))
	for i, pl := range b.Placed {
		if pl.Off < 0 || pl.Group < 0 || pl.Group >= len(groups) {
			return out, fmt.Errorf("replay: object %s has no acked placement", b.Set[i].Name)
		}
		groups[pl.Group] = append(groups[pl.Group], placedObj{i, pl.Off})
	}
	stores := make([]*store.Store, len(groups))
	failed := make([][]int, len(groups))
	defer func() {
		for _, st := range stores {
			if st != nil {
				st.Close()
			}
		}
	}()
	var stripes [][]byte // leading stripes of group 0, for encode/decode
	for g, objs := range groups {
		sort.Slice(objs, func(i, j int) bool { return objs[i].off < objs[j].off })
		st, _, err := store.OpenFileBacked(scheme, cellBytes, store.FileConfig{
			Dir: filepath.Join(dir, fmt.Sprintf("replay-g%d", g)), Fsync: store.FsyncAlways})
		if err != nil {
			return out, err
		}
		stores[g] = st
		var cur int64
		for _, o := range objs {
			if o.off < cur {
				return out, fmt.Errorf("replay: objects overlap at offset %d", o.off)
			}
			chunks := [][]byte{make([]byte, o.off-cur), b.Payloads[o.idx]}
			for _, c := range chunks {
				if g == 0 {
					stripes = collectStripes(stripes, cur, c, stripeBytes)
				}
				if err := st.Append(c); err != nil {
					return out, err
				}
				cur += int64(len(c))
			}
		}
		if err := st.Flush(); err != nil {
			return out, err
		}
		if failed[g], err = failedDisks(b.W, scheme, g); err != nil {
			return out, err
		}
		for _, d := range failed[g] {
			st.FailDisk(d)
		}
		if b.W.SlowDisk0 > 0 {
			plan, err := faultinject.ParsePlan([]byte(slowDiskPlan(b.W.SlowDisk0)))
			if err != nil {
				return out, err
			}
			st.SetFaultInjector(faultinject.New(plan))
		}
		st.SetReadOptions(store.ReadOptions{Hedge: store.HedgeConfig{Quantile: 0.9, Min: time.Millisecond}})
	}

	// Store and planner replay of the recorded GET stream.
	var readTotal, planTotal time.Duration
	end := time.Now().Add(budget)
	for _, key := range gets {
		if time.Now().After(end) || ctx.Err() != nil {
			break
		}
		pl, o := b.Placed[key], b.Set[key]
		st := stores[pl.Group]
		t0 := time.Now()
		res, err := st.ReadAtCtx(ctx, pl.Off, o.Size, st.ReadDefaults())
		readTotal += time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("replay read %s: %w", o.Name, err)
		}
		if !bytes.Equal(res.Data, b.Payloads[key]) {
			return out, fmt.Errorf("replay read %s: bytes differ from the stored object", o.Name)
		}
		out.Reads++
		start := int(pl.Off / cellBytes)
		count := int((pl.Off+int64(o.Size)-1)/cellBytes) - start + 1
		t0 = time.Now()
		if len(failed[pl.Group]) == 0 {
			_, err = scheme.PlanNormalRead(start, count)
		} else {
			_, err = scheme.PlanDegradedRead(start, count, failed[pl.Group])
		}
		planTotal += time.Since(t0)
		if err != nil {
			return out, fmt.Errorf("replay plan %s: %w", o.Name, err)
		}
		out.Plans++
	}
	if out.Reads > 0 {
		out.ReadMs = readTotal.Seconds() * 1e3 / float64(out.Reads)
		out.PlanUs = planTotal.Seconds() * 1e6 / float64(out.Plans)
	}

	// Codec replay over group 0's leading stripes: encode each, then erase
	// the lost disks' cells and reconstruct.
	var bufs core.Buffers
	lay := scheme.Layout()
	var encTotal, decTotal time.Duration
	for rep := 0; rep < 4; rep++ {
		for _, s := range stripes {
			if int64(len(s)) < stripeBytes {
				continue // a partial tail stripe
			}
			data := make([][]byte, scheme.DataPerStripe())
			for e := range data {
				data[e] = s[e*cellBytes : (e+1)*cellBytes]
			}
			cells := make([][]byte, scheme.CellsPerStripe())
			t0 := time.Now()
			if err := scheme.EncodeStripeInto(&bufs, cells, data); err != nil {
				return out, err
			}
			encTotal += time.Since(t0)
			out.EncodedMB += float64(len(s)) / 1e6
			for i := range cells {
				for _, d := range failed[0] {
					if i%lay.N() == d {
						cells[i] = nil
					}
				}
			}
			t0 = time.Now()
			if err := scheme.ReconstructStripeInto(&bufs, cells); err != nil {
				return out, err
			}
			decTotal += time.Since(t0)
			out.Decodes++
		}
	}
	if out.Decodes > 0 {
		out.EncodeMBps = out.EncodedMB / encTotal.Seconds()
		out.DecodeUs = decTotal.Seconds() * 1e6 / float64(out.Decodes)
	}
	return out, nil
}

// collectStripes appends the bytes of chunk (at logical offset off) to the
// leading replayStripes stripes being assembled in stripes.
func collectStripes(stripes [][]byte, off int64, chunk []byte, stripeBytes int64) [][]byte {
	for len(chunk) > 0 {
		idx := int(off / stripeBytes)
		if idx >= replayStripes {
			return stripes
		}
		for len(stripes) <= idx {
			stripes = append(stripes, make([]byte, 0, stripeBytes))
		}
		room := int(stripeBytes) - len(stripes[idx])
		n := min(room, len(chunk))
		stripes[idx] = append(stripes[idx], chunk[:n]...)
		chunk, off = chunk[n:], off+int64(n)
	}
	return stripes
}
