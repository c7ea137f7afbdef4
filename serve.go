package esthera

import (
	"net/http"

	"esthera/internal/model"
	"esthera/internal/model/arm"
	"esthera/internal/serve"
)

// Serving layer, re-exported from internal/serve: a multi-session
// estimation service running many concurrent tracking sessions on one
// shared many-core device, with admission control, cross-session
// batching, checkpoint/restore and introspection. See the package
// documentation of internal/serve and cmd/esthera-serve for the HTTP
// front-end.
type (
	// Server runs concurrent estimation sessions over one shared device.
	Server = serve.Server
	// ServerConfig shapes a Server: queue depth, batch size, session
	// limits.
	ServerConfig = serve.Config
	// FilterSpec describes a session's filter by registry and option
	// names; its zero value selects a 16×64 ring filter.
	FilterSpec = serve.FilterSpec
	// ModelFactory builds a fresh model instance for one session.
	ModelFactory = serve.ModelFactory
	// StepResult is one observation step's output.
	StepResult = serve.StepResult
	// Checkpoint is the deterministic serialization of one session.
	Checkpoint = serve.Checkpoint
	// ServerStats is the in-process introspection snapshot; /metrics
	// serves the same state as Prometheus text.
	ServerStats = serve.Stats
	// ServerHealth is the robustness-layer slice of ServerStats:
	// readiness, drain state, cancellation and backpressure counters.
	ServerHealth = serve.HealthSnapshot
	// SaturatedError reports admission-queue overflow with a retry hint.
	SaturatedError = serve.SaturatedError
	// Client is an HTTP client for the serving API with
	// exponential-backoff retries that honor the server's Retry-After
	// admission hints.
	Client = serve.Client
	// ClientConfig shapes a Client: base URL, attempt bound, backoff.
	ClientConfig = serve.ClientConfig
	// APIError is a Client's non-retryable (or retry-exhausted) reply.
	APIError = serve.APIError
)

// Serving errors, re-exported for errors.Is.
var (
	ErrNotFound        = serve.ErrNotFound
	ErrServerClosed    = serve.ErrClosed
	ErrServerDraining  = serve.ErrDraining
	ErrTooManySessions = serve.ErrTooManySessions
)

// NewServerClient builds a retrying HTTP client for a serving endpoint.
func NewServerClient(cfg ClientConfig) *Client {
	return serve.NewClient(cfg)
}

// BuiltinModels returns the standard model registry for serving: every
// bundled benchmark model by name. The "arm" entry serves the Table II
// default arm (5 joints); register arm.New directly for other arms.
func BuiltinModels() map[string]ModelFactory {
	return map[string]ModelFactory{
		"ungm":       func() (model.Model, error) { return model.NewUNGM(), nil },
		"bearings":   func() (model.Model, error) { return model.NewBearings(), nil },
		"volatility": func() (model.Model, error) { return model.NewStochasticVolatility(), nil },
		"vehicle":    func() (model.Model, error) { return model.NewVehicle(), nil },
		"arm":        func() (model.Model, error) { return arm.New(arm.Config{}) },
	}
}

// NewServer starts an estimation server over the builtin model registry.
// Use NewServerWithModels to serve custom models.
func NewServer(cfg ServerConfig) *Server {
	return serve.NewServer(cfg, BuiltinModels())
}

// NewServerWithModels starts an estimation server over a custom model
// registry.
func NewServerWithModels(cfg ServerConfig, models map[string]ModelFactory) *Server {
	return serve.NewServer(cfg, models)
}

// NewServerHandler exposes a Server as a JSON-over-HTTP API (see
// internal/serve's NewHandler for the route table).
func NewServerHandler(s *Server) http.Handler {
	return serve.NewHandler(s)
}
