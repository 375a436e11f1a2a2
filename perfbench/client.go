package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Client is one closed-loop client: its own transport holding exactly one
// keep-alive connection, so two clients are two connections.
type Client struct {
	hc   *http.Client
	base string
	buf  []byte // GET body buffer, reused across requests
}

// NewClient returns a client of base (http://host:port).
func NewClient(base string) *Client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &Client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

// Close drops the client's idle connection.
func (c *Client) Close() { c.hc.CloseIdleConnections() }

// OpError is a failed op: a transport error (refused connection, reset), a
// non-2xx status, or a body that differs from what was stored.
type OpError struct {
	Op     string
	Name   string
	Status int // 0 for transport errors
	Reason string
}

func (e *OpError) Error() string {
	if e.Status == 0 {
		return fmt.Sprintf("%s %s: %s", e.Op, e.Name, e.Reason)
	}
	return fmt.Sprintf("%s %s: status %d: %s", e.Op, e.Name, e.Status, e.Reason)
}

// Timing marks one request's phases: t0 before sending, headers when the
// response headers arrived, body when the body was read in full, done when
// verification finished.
type Timing struct {
	T0, Headers, Body, Done time.Time
}

// Get fetches name and byte-compares the body with want. Any transport
// error, non-200 status, length mismatch or byte difference is an *OpError.
func (c *Client) Get(ctx context.Context, name, rid string, want []byte) (Timing, error) {
	var tm Timing
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/objects/"+name, nil)
	if err != nil {
		return tm, err
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	tm.T0 = time.Now()
	resp, err := c.hc.Do(req)
	tm.Headers = time.Now()
	if err != nil {
		return tm, &OpError{Op: "GET", Name: name, Reason: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return tm, &OpError{Op: "GET", Name: name, Status: resp.StatusCode, Reason: string(bytes.TrimSpace(b))}
	}
	if cap(c.buf) < len(want)+1 {
		c.buf = make([]byte, len(want)+1)
	}
	// Read one byte more than expected so a long body shows as a mismatch.
	got, rerr := io.ReadFull(resp.Body, c.buf[:len(want)+1])
	tm.Body = time.Now()
	switch {
	case rerr != nil && !errors.Is(rerr, io.ErrUnexpectedEOF) && !errors.Is(rerr, io.EOF):
		return tm, &OpError{Op: "GET", Name: name, Status: resp.StatusCode, Reason: "body: " + rerr.Error()}
	case got != len(want):
		return tm, &OpError{Op: "GET", Name: name, Status: resp.StatusCode,
			Reason: fmt.Sprintf("body is %d bytes, want %d", got, len(want))}
	case !bytes.Equal(c.buf[:got], want):
		return tm, &OpError{Op: "GET", Name: name, Status: resp.StatusCode, Reason: "body bytes differ from the stored object"}
	}
	tm.Done = time.Now()
	return tm, nil
}

// Placed is where a PUT's object landed, as its 201 body reports it: the
// stripe group (always 0 outside a cluster) and the byte offset.
type Placed struct {
	Group int
	Off   int64
}

// Put stores body under name and requires a 201 ack.
func (c *Client) Put(ctx context.Context, name, rid string, body []byte) (Timing, Placed, error) {
	var tm Timing
	pl := Placed{Off: -1}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+"/objects/"+name, bytes.NewReader(body))
	if err != nil {
		return tm, pl, err
	}
	if rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	tm.T0 = time.Now()
	resp, err := c.hc.Do(req)
	tm.Headers = time.Now()
	if err != nil {
		return tm, pl, &OpError{Op: "PUT", Name: name, Reason: err.Error()}
	}
	defer resp.Body.Close()
	ack, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	tm.Body = time.Now()
	tm.Done = tm.Body
	if resp.StatusCode != http.StatusCreated {
		return tm, pl, &OpError{Op: "PUT", Name: name, Status: resp.StatusCode, Reason: string(bytes.TrimSpace(ack))}
	}
	pl = parsePlaced(string(ack))
	return tm, pl, nil
}

// parsePlaced reads the offset (and group, from a gateway) out of a PUT
// ack: "stored N bytes at offset O" or "stored N bytes in group G at
// offset O". An unparsable ack leaves Off at -1.
func parsePlaced(ack string) Placed {
	var n, g int
	var off int64
	if _, err := fmt.Sscanf(ack, "stored %d bytes in group %d at offset %d", &n, &g, &off); err == nil {
		return Placed{Group: g, Off: off}
	}
	if _, err := fmt.Sscanf(ack, "stored %d bytes at offset %d", &n, &off); err == nil {
		return Placed{Off: off}
	}
	return Placed{Off: -1}
}

// getStatus issues a GET of url and returns the status and body (for
// readiness probes and metric scrapes).
func getStatus(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// requestID names the op'th request of a client.
func requestID(client, op int) string { return strconv.Itoa(client) + "-" + strconv.Itoa(op) }
