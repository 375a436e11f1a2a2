package store

import "repro/internal/core"

// ReadBuffers is the arena every hop of a read draws its byte buffers from
// and recycles them into, so steady-state reads stop allocating per byte.
// The ownership rule:
//
//   - A device run read from a file backend (readCell, readRun) is drawn
//     from ReadBuffers, except under O_DIRECT, whose reads need aligned
//     memory. A CellBackend's ReadRun result, and DiskStore.ReadRun's, is
//     the caller's: an implementation must never return memory it keeps.
//   - The fan-out executor records every run buffer a bulk (runIO) backend
//     hands it and recycles them once assembly has copied the requested
//     bytes out — or on any replan, error, corruption or cancellation exit.
//     A buffer that never reached its owner (the read failed first) is
//     left to the GC.
//   - Memory-backend cells alias live device storage and are never
//     recycled. Neither are a hedged primary's staged run buffers: hedging
//     is opt-in, and leaving its staging to the GC keeps the race between
//     primary and rebuild free of arena bookkeeping.
//   - The assembled object (ReadResult.Data) is drawn from ReadBuffers;
//     ReadResult.Release hands it back.
var ReadBuffers core.Buffers

// Release hands Data back to ReadBuffers. Call it once the bytes have been
// written out or copied; neither Data nor any slice of it may be used
// afterwards. A caller that keeps Data simply never calls Release.
func (r *ReadResult) Release() {
	ReadBuffers.PutShard(r.Data)
	r.Data = nil
}
