// Package client is a small Go client for the dsdd HTTP API. It is the
// reference consumer of the wire encoding and is what the service's own
// tests use to exercise the server end to end.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"

	"repro/internal/service/wire"
)

// Client talks to one dsdd server.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the server at base (e.g. "http://localhost:8080").
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: hc}
}

// QueryV2 runs a v2 query: any dsd.Query in its wire form, answered with
// the result plus the run's QueryStats.
func (c *Client) QueryV2(ctx context.Context, req wire.QueryV2Request) (*wire.QueryV2Response, error) {
	var resp wire.QueryV2Response
	if err := c.do(ctx, http.MethodPost, "/v2/query", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// StreamQuery runs a v2 query as an anytime stream (POST /v1/stream):
// fn is invoked for every Server-Sent answer event in arrival order —
// each a certified interval, each tightening the one before — and the
// final event is also returned. A server-side failure after the stream
// starts surfaces as an error carrying the server's message, as do
// pre-stream rejections (the familiar status-mapped errors: 503 on
// shed, 404 on an unknown graph, …). fn may be nil to only collect the
// final answer.
func (c *Client) StreamQuery(ctx context.Context, req wire.QueryV2Request, fn func(wire.StreamEvent)) (*wire.StreamEvent, error) {
	buf, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/stream", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("Accept", "text/event-stream")
	resp, err := c.http.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr wire.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return nil, fmt.Errorf("client: POST /v1/stream: status %d: %s", resp.StatusCode, apiErr.Error)
		}
		return nil, fmt.Errorf("client: POST /v1/stream: status %d", resp.StatusCode)
	}
	var final *wire.StreamEvent
	dispatch := func(event string, data []byte) error {
		if len(data) == 0 {
			return nil
		}
		switch event {
		case "error":
			var apiErr wire.ErrorResponse
			if json.Unmarshal(data, &apiErr) == nil && apiErr.Error != "" {
				return fmt.Errorf("client: stream failed: %s", apiErr.Error)
			}
			return fmt.Errorf("client: stream failed: %s", data)
		default: // "answer" or "final"
			var ev wire.StreamEvent
			if err := json.Unmarshal(data, &ev); err != nil {
				return fmt.Errorf("client: bad stream event: %w", err)
			}
			if fn != nil {
				fn(ev)
			}
			if ev.Final {
				final = &ev
			}
			return nil
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := dispatch(event, data); err != nil {
				return nil, err
			}
			event, data = "", nil
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Tolerate a terminal event not followed by a blank line.
	if err := dispatch(event, data); err != nil {
		return nil, err
	}
	if final == nil {
		return nil, fmt.Errorf("client: stream ended without a final event")
	}
	return final, nil
}

// RegisterEdges registers a graph from an inline edge list.
func (c *Client) RegisterEdges(ctx context.Context, name, edges string) (*wire.GraphInfo, error) {
	return c.register(ctx, wire.RegisterRequest{Name: name, Edges: edges})
}

// RegisterFile registers a graph from a file path readable by the server.
func (c *Client) RegisterFile(ctx context.Context, name, path string) (*wire.GraphInfo, error) {
	return c.register(ctx, wire.RegisterRequest{Name: name, Path: path})
}

func (c *Client) register(ctx context.Context, req wire.RegisterRequest) (*wire.GraphInfo, error) {
	var info wire.GraphInfo
	if err := c.do(ctx, http.MethodPost, "/v1/graphs", req, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

// Mutate applies an edge-mutation batch to a registered graph
// (POST /v1/graphs/{name}/edges), returning the new graph version and
// what changed.
func (c *Client) Mutate(ctx context.Context, name string, req wire.MutateRequest) (*wire.MutateResponse, error) {
	var resp wire.MutateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/graphs/"+url.PathEscape(name)+"/edges", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// GetGraph fetches one graph's lifecycle detail (GET /v1/graphs/{name}):
// registered-time stats, current version with live counts, retained
// versions.
func (c *Client) GetGraph(ctx context.Context, name string) (*wire.GraphDetail, error) {
	var detail wire.GraphDetail
	if err := c.do(ctx, http.MethodGet, "/v1/graphs/"+url.PathEscape(name), nil, &detail); err != nil {
		return nil, err
	}
	return &detail, nil
}

// DeleteGraph unregisters a graph and evicts its cached results
// (DELETE /v1/graphs/{name}).
func (c *Client) DeleteGraph(ctx context.Context, name string) error {
	return c.do(ctx, http.MethodDelete, "/v1/graphs/"+url.PathEscape(name), nil, nil)
}

// Graphs lists the registered graphs.
func (c *Client) Graphs(ctx context.Context) ([]wire.GraphInfo, error) {
	var infos []wire.GraphInfo
	if err := c.do(ctx, http.MethodGet, "/v1/graphs", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Shards lists the server's registered shard workers with their health
// (GET /v3/shards).
func (c *Client) Shards(ctx context.Context) ([]wire.ShardInfo, error) {
	var infos []wire.ShardInfo
	if err := c.do(ctx, http.MethodGet, "/v3/shards", nil, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// RegisterShard registers a shard worker's base URL with the server's
// coordinator (POST /v3/shards).
func (c *Client) RegisterShard(ctx context.Context, addr string) ([]wire.ShardInfo, error) {
	var infos []wire.ShardInfo
	if err := c.do(ctx, http.MethodPost, "/v3/shards", wire.ShardRegisterRequest{Addr: addr}, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// Stats fetches the service's operational counters.
func (c *Client) Stats(ctx context.Context) (*wire.StatsResponse, error) {
	var stats wire.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// Health checks the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: health check: status %d", resp.StatusCode)
	}
	return nil
}

// do sends one JSON request and decodes the JSON response into out.
// Non-2xx responses are surfaced as errors carrying the server's message.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr wire.ErrorResponse
		if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("client: %s %s: status %d: %s", method, path, resp.StatusCode, apiErr.Error)
		}
		return fmt.Errorf("client: %s %s: status %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
