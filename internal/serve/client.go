package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"esthera/internal/telemetry"
)

// ClientConfig shapes a Client.
type ClientConfig struct {
	// BaseURL is the server root, e.g. "http://tracker:8080".
	BaseURL string
	// HTTPClient is the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// MaxAttempts bounds the tries per call, including the first
	// (0 = 8). Only backpressure replies (429) and unavailability (503)
	// are retried; they guarantee the step was not applied.
	MaxAttempts int
	// BaseBackoff is the first retry's wait when the server supplies no
	// Retry-After hint (0 = 2ms); it doubles per retry up to MaxBackoff
	// (0 = 250ms). Server hints override the schedule.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 2 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	return c
}

// Client talks to a serve HTTP endpoint with exponential-backoff
// retries that honor the server's admission hints: a 429 or 503 reply
// is retried after the `Retry-After-Ms` (millisecond-exact) or
// `Retry-After` (whole seconds) header, falling back to doubling
// backoff when neither is present. Both statuses are sent before the
// step is admitted, so retrying can never double-apply an observation.
// Transport-level errors are NOT retried — a broken connection cannot
// prove the server didn't apply the step. All calls respect ctx.
type Client struct {
	cfg ClientConfig
}

// NewClient builds a client for the server at cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	return &Client{cfg: cfg.withDefaults()}
}

// APIError is a non-retryable (or retry-exhausted) non-2xx reply.
type APIError struct {
	Status  int
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("serve client: status %d: %s", e.Status, e.Message)
}

// Is maps wire statuses back onto the server's sentinel errors, so
// errors.Is(err, ErrNotFound) works across the HTTP boundary.
func (e *APIError) Is(target error) bool {
	return target == ErrNotFound && e.Status == http.StatusNotFound
}

// Create builds a session from spec and returns its id.
func (c *Client) Create(ctx context.Context, spec FilterSpec) (string, error) {
	var out struct {
		ID string `json:"id"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/sessions", map[string]any{"spec": spec}, &out)
	return out.ID, err
}

// Step advances session id by one observation, retrying backpressure
// rejections with the server's own hints.
func (c *Client) Step(ctx context.Context, id string, u, z []float64) (StepResult, error) {
	var reply StepReply
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/step", map[string]any{"u": u, "z": z}, &reply)
	if err != nil {
		return StepResult{}, err
	}
	return reply.result(), nil
}

// Estimate returns the session's latest estimate without stepping.
func (c *Client) Estimate(ctx context.Context, id string) (StepResult, error) {
	var reply StepReply
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &reply)
	if err != nil {
		return StepResult{}, err
	}
	return reply.result(), nil
}

// Close tears down session id.
func (c *Client) Close(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil)
}

// Checkpoint reads session id's current checkpoint without closing it.
func (c *Client) Checkpoint(ctx context.Context, id string) (*Checkpoint, error) {
	var cp Checkpoint
	if err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/checkpoint", nil, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// Post sends in as a JSON body to path and decodes the reply into out,
// under the same retry policy and trace propagation as the session
// calls. The shard router reaches each replica's control endpoints
// through it.
func (c *Client) Post(ctx context.Context, path string, in, out any) error {
	return c.do(ctx, http.MethodPost, path, in, out)
}

// Ready probes /readyz: nil while the server admits new steps.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Live probes /healthz: nil while the server process answers, draining
// or not.
func (c *Client) Live(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// result converts the wire reply to a StepResult; the bits field is the
// exact value (±Inf round-trips through it, which plain JSON forbids).
func (r StepReply) result() StepResult {
	return StepResult{Step: r.Step, State: r.State, LogWeight: math.Float64frombits(r.LogWeightBits)}
}

// do issues one API call with the retry policy described on Client.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		var err error
		if payload, err = json.Marshal(in); err != nil {
			return err
		}
	}
	backoff := c.cfg.BaseBackoff
	for attempt := 1; ; attempt++ {
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, body)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if tc, ok := telemetry.TraceFromContext(ctx); ok {
			req.Header.Set(telemetry.TraceHeader, tc.HeaderValue())
		}
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode < 300 {
			var err error
			if out != nil {
				err = json.NewDecoder(resp.Body).Decode(out)
			}
			// Read to EOF before closing, or the transport drops the
			// connection: a decoder stops at the value's end, short of
			// the trailing newline and a chunked reply's last chunk.
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return err
		}
		msg := readError(resp.Body)
		retryable := resp.StatusCode == http.StatusTooManyRequests ||
			resp.StatusCode == http.StatusServiceUnavailable
		if !retryable || attempt >= c.cfg.MaxAttempts {
			resp.Body.Close()
			return &APIError{Status: resp.StatusCode, Message: msg}
		}
		wait := c.retryWait(resp.Header, &backoff)
		resp.Body.Close()
		// Stopped on cancel: before go 1.23 an unfired timer lives on.
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}

// retryWait picks the next wait: the server's millisecond hint, its
// whole-second hint, or (absent both) the doubling backoff schedule.
func (c *Client) retryWait(h http.Header, backoff *time.Duration) time.Duration {
	if ms, err := strconv.ParseInt(h.Get("Retry-After-Ms"), 10, 64); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	if secs, err := strconv.ParseInt(h.Get("Retry-After"), 10, 64); err == nil && secs > 0 {
		return time.Duration(secs) * time.Second
	}
	wait := *backoff
	*backoff *= 2
	if *backoff > c.cfg.MaxBackoff {
		*backoff = c.cfg.MaxBackoff
	}
	return wait
}

// readError extracts the {"error": ...} body of a failed reply.
func readError(r io.Reader) string {
	var body struct {
		Error string `json:"error"`
	}
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || json.Unmarshal(raw, &body) != nil || body.Error == "" {
		return string(raw)
	}
	return body.Error
}
