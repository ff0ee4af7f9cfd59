package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/streamtune/streamtune/internal/engine"
	"github.com/streamtune/streamtune/internal/service"
)

// httpBackend is the tuning service behind a base URL.
type httpBackend struct {
	base string
	hc   *http.Client
}

// newHTTPBackend returns a client that keeps one connection to the
// server.
func newHTTPBackend(addr string) *httpBackend {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &httpBackend{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (b *httpBackend) close() { b.hc.CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out; any other
// status is an error carrying the server's error envelope.
func (b *httpBackend) do(ctx context.Context, method, path string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (b *httpBackend) Register(ctx context.Context, id string, spec []byte, cfg engine.Config) error {
	body, err := json.Marshal(struct {
		JobID  string          `json:"job_id"`
		Spec   json.RawMessage `json:"spec"`
		Engine engine.Config   `json:"engine_config"`
	}{id, spec, cfg})
	if err != nil {
		return err
	}
	return b.do(ctx, http.MethodPost, "/v1/jobs", body, nil)
}

func (b *httpBackend) Recommend(ctx context.Context, id string) (*service.Recommendation, error) {
	var rec service.Recommendation
	if err := b.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/recommend", nil, &rec); err != nil {
		return nil, err
	}
	return &rec, nil
}

func (b *httpBackend) Observe(ctx context.Context, id string, m *engine.JobMetrics) (bool, error) {
	body, err := json.Marshal(service.ObserveRequest{Metrics: m})
	if err != nil {
		return false, err
	}
	var resp service.ObserveResponse
	if err := b.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/metrics", body, &resp); err != nil {
		return false, err
	}
	return resp.Done, nil
}

func (b *httpBackend) Mutate(ctx context.Context, id string, mutation []byte) error {
	return b.do(ctx, http.MethodPatch, "/v1/jobs/"+id+"/topology", mutation, nil)
}

func (b *httpBackend) Release(ctx context.Context, id string) error {
	return b.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// drive runs a plan's tenants against a backend over one connection in
// a closed loop: each tenant registers when the one before it has left.
// A process is due when its tenant's turn comes (the registration) or
// when its previous process ended (a mutation), so a slow response
// shows up in the latency of the process waiting on it.
func drive(ctx context.Context, p *plan, b backend) *recorder {
	rec := newRecorder()
	c := newClient(b, rec, nil)
	for i := range p.Tenants {
		if ctx.Err() != nil {
			break
		}
		c.start(&p.Tenants[i], time.Now()).run(ctx)
	}
	return rec
}
