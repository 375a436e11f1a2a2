package datanode

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/nodeapi"
	"repro/internal/obs"
	"repro/internal/store"
)

func (s *Server) routes() {
	s.mux.HandleFunc("GET /cells/{group}/{disk}", s.timed(s.handleReadRun))
	s.mux.HandleFunc("PUT /cells/{group}/{disk}", s.timed(s.handleWriteRun))
	s.mux.HandleFunc("GET /cells/{group}/{disk}/meta", s.timed(s.handleMeta))
	s.mux.HandleFunc("POST /sync/{group}/{disk}", s.timed(s.handleSync))
	s.mux.HandleFunc("POST /truncate/{group}/{disk}", s.timed(s.handleTruncate))
	s.mux.HandleFunc("GET "+nodeapi.StatusPath, s.timed(s.handleStatus))
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	if s.reg != nil {
		s.mux.Handle("GET /metrics", s.reg.Handler())
	}
}

// timed wraps a handler with the request-latency histogram.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer obs.StartSpan(s.reqLat).End()
		h(w, r)
	}
}

// pathKey parses the {group}/{disk} wildcards.
func pathKey(r *http.Request) (diskKey, error) {
	g, err := strconv.Atoi(r.PathValue("group"))
	if err != nil || g < 0 {
		return diskKey{}, fmt.Errorf("bad group %q", r.PathValue("group"))
	}
	d, err := strconv.Atoi(r.PathValue("disk"))
	if err != nil || d < 0 {
		return diskKey{}, fmt.Errorf("bad disk %q", r.PathValue("disk"))
	}
	return diskKey{g, d}, nil
}

// missing answers a read of cells the node never stored: 404 plus the marker
// header the gateway maps to store.ErrCellMissing.
func missing(w http.ResponseWriter) {
	w.Header().Set(nodeapi.MissingHeader, "1")
	http.Error(w, "cell not present", http.StatusNotFound)
}

func (s *Server) handleReadRun(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	slot, err1 := strconv.Atoi(r.URL.Query().Get("slot"))
	count, err2 := strconv.Atoi(r.URL.Query().Get("count"))
	if err1 != nil || err2 != nil || slot < 0 || count < 1 {
		http.Error(w, "bad slot/count", http.StatusBadRequest)
		return
	}
	if count > nodeapi.MaxRunCells(s.cfg.ElemSize) {
		http.Error(w, "run too large", http.StatusRequestEntityTooLarge)
		return
	}
	ds, _ := s.getDisk(k, false)
	if ds == nil {
		missing(w)
		return
	}
	data, crcs, err := ds.ReadRun(slot, count)
	switch {
	case errors.Is(err, store.ErrCellMissing):
		missing(w)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.readCells.Add(int64(count))
	s.readBytes.Add(int64(len(data)))
	// Length-framed reply: the header, then the device buffer as read, with
	// no frame-sized copy in between. Write keeps no reference to the
	// buffer, so it goes back to the arena as soon as Write returns.
	hdr := nodeapi.AppendRunHeader(nil, s.cfg.ElemSize, crcs)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(hdr)+len(data)))
	w.Write(hdr)
	w.Write(data)
	store.ReadBuffers.PutShard(data)
}

func (s *Server) handleWriteRun(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	slot, err := strconv.Atoi(r.URL.Query().Get("slot"))
	if err != nil || slot < 0 {
		http.Error(w, "bad slot", http.StatusBadRequest)
		return
	}
	body, err := readBody(r, nodeapi.MaxRunBytes)
	if errors.Is(err, errTooLarge) {
		http.Error(w, "run too large", http.StatusRequestEntityTooLarge)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	data, crcs, err := nodeapi.DecodeRun(body, s.cfg.ElemSize)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ds, err := s.getDisk(k, true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := ds.WriteRun(slot, data, crcs); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeCells.Add(int64(len(crcs)))
	s.writeBytes.Add(int64(len(data)))
	w.WriteHeader(http.StatusNoContent)
}

var errTooLarge = errors.New("request body too large")

// readBody reads a request body of at most limit bytes. A declared
// Content-Length sizes the buffer exactly, so the body is copied once.
func readBody(r *http.Request, limit int) ([]byte, error) {
	if r.ContentLength > int64(limit) {
		return nil, errTooLarge
	}
	if r.ContentLength >= 0 {
		body := make([]byte, r.ContentLength)
		_, err := io.ReadFull(r.Body, body)
		return body, err
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, int64(limit)+1))
	if err == nil && len(body) > limit {
		return nil, errTooLarge
	}
	return body, err
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	meta := nodeapi.DiskMeta{Group: k.group, Disk: k.disk}
	if ds, _ := s.getDisk(k, false); ds != nil {
		meta.Slots = ds.Slots()
		meta.Elements = ds.Elements()
	}
	writeJSON(w, meta)
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	// Syncing an extent that was never written is a durable no-op.
	if ds, _ := s.getDisk(k, false); ds != nil {
		if err := ds.Sync(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		s.syncs.Inc()
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleTruncate(w http.ResponseWriter, r *http.Request) {
	k, err := pathKey(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	slots, err := strconv.Atoi(r.URL.Query().Get("slots"))
	if err != nil || slots < 0 {
		http.Error(w, "bad slots", http.StatusBadRequest)
		return
	}
	ds, err := s.getDisk(k, true)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := ds.Truncate(slots); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	keys := make([]diskKey, 0, len(s.disks))
	for k := range s.disks {
		keys = append(keys, k)
	}
	s.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].group != keys[j].group {
			return keys[i].group < keys[j].group
		}
		return keys[i].disk < keys[j].disk
	})
	st := nodeapi.NodeStatus{
		Backend:  s.Backend(),
		ElemSize: s.cfg.ElemSize,
		Draining: s.draining.Load(),
	}
	for _, k := range keys {
		ds, _ := s.getDisk(k, false)
		if ds == nil {
			continue
		}
		st.Disks = append(st.Disks, nodeapi.DiskMeta{
			Group: k.group, Disk: k.disk, Slots: ds.Slots(), Elements: ds.Elements(),
		})
	}
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
