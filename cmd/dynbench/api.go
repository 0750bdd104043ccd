package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"dynplace"
	"dynplace/internal/daemon"
)

// api reaches a daemon's HTTP surface. The in-process workloads call
// Daemon.Handler() directly; http_mixed goes over loopback. Everything
// the harness asks of a daemon goes through one of the two, so the same
// request sequences and the same output checks serve both.
type api interface {
	// do performs one request. resp is valid until the next call.
	do(method, path string, body []byte) (status int, resp []byte, err error)
}

// handlerAPI serves requests from an http.Handler without a network.
// One value serves one goroutine.
type handlerAPI struct {
	h   http.Handler
	buf respBuf
}

// respBuf is a reusable http.ResponseWriter.
type respBuf struct {
	hdr    http.Header
	status int
	body   bytes.Buffer
}

func (r *respBuf) Header() http.Header { return r.hdr }

func (r *respBuf) Write(p []byte) (int, error) { return r.body.Write(p) }

func (r *respBuf) WriteHeader(code int) { r.status = code }

func (a *handlerAPI) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, "http://dynbench"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if a.buf.hdr == nil {
		a.buf.hdr = make(http.Header)
	}
	clear(a.buf.hdr)
	a.buf.status = http.StatusOK
	a.buf.body.Reset()
	a.h.ServeHTTP(&a.buf, req)
	return a.buf.status, a.buf.body.Bytes(), nil
}

// httpAPI is one closed-loop client: one connection, one request in
// flight.
type httpAPI struct {
	base   string
	client *http.Client
	buf    bytes.Buffer
}

func newHTTPAPI(base string) *httpAPI {
	return &httpAPI{
		base: base,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
	}
}

func (a *httpAPI) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := a.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	a.buf.Reset()
	_, err = a.buf.ReadFrom(resp.Body)
	_ = resp.Body.Close() // the body was read to EOF; a close error changes nothing
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, a.buf.Bytes(), nil
}

func (a *httpAPI) close() { a.client.CloseIdleConnections() }

// ok reports a 2xx status. 202 (queued by overload protection) counts:
// the router accepted the request.
func ok(status int) bool { return status >= 200 && status < 300 }

// mustOK turns a failed request into an error naming it.
func mustOK(a api, method, path string, body []byte) ([]byte, error) {
	status, resp, err := a.do(method, path, body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if !ok(status) {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(resp))
	}
	return resp, nil
}

func addAppBody(spec dynplace.WebAppSpec) []byte {
	raw, _ := json.Marshal(daemon.AddAppRequest{App: spec}) // plain struct of numbers and strings
	return raw
}

func submitJobBody(spec dynplace.JobSpec) []byte {
	raw, _ := json.Marshal(daemon.SubmitJobRequest{Job: spec, Relative: true}) // as above
	return raw
}

func setLoadBody(rate float64) []byte {
	raw, _ := json.Marshal(daemon.SetLoadRequest{ArrivalRate: rate}) // as above
	return raw
}

// getJSON fetches path and decodes the reply into v.
func getJSON(a api, path string, v any) error {
	resp, err := mustOK(a, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(resp, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}
