// Package checkpoint seeds snapshot-struct shapes: untagged exported
// fields (flagged — they would silently join or leave the wire format)
// and the explicit spellings the wire-format contract requires.
package checkpoint

// GoodSnapshot declares every exported field's wire fate explicitly.
type GoodSnapshot struct {
	Step  int       `json:"step"`
	X     []float64 `json:"-"` // serialized out of band (base64)
	state []byte    // unexported: never on the wire
}

// BadSnapshot has exported fields without wire tags.
type BadSnapshot struct {
	Step    int       `json:"step"`
	Weights []float64 // want `exported field Weights of snapshot struct BadSnapshot has no json tag`
	Best    int       // want `exported field Best of snapshot struct BadSnapshot has no json tag`
}

// StreamState matches the State$ naming rule.
type StreamState struct {
	Kind  string   `json:"kind"`
	Words []uint32 // want `exported field Words of snapshot struct StreamState has no json tag`
}

// WireCheckpoint matches the Checkpoint$ naming rule.
type WireCheckpoint struct {
	Version int          `json:"version"`
	Inner   GoodSnapshot // want `exported field Inner of snapshot struct WireCheckpoint has no json tag`
}

// EmbeddedSnapshot embeds without a tag: the embedded fields would
// flatten into the wire format implicitly.
type EmbeddedSnapshot struct {
	GoodSnapshot     // want `embedded field of snapshot struct EmbeddedSnapshot has no json tag`
	Extra        int `json:"extra"`
}

// FramedMsg matches the Msg$ naming rule: control-message bodies are
// a wire format too.
type FramedMsg struct {
	ID    string `json:"id"`
	Round int64  // want `exported field Round of snapshot struct FramedMsg has no json tag`
}

// NotPersisted is not snapshot-named: untagged fields are fine here.
type NotPersisted struct {
	Cache   map[string]int
	Pending []float64
}

// AllowedSnapshot demonstrates the reviewed-exception escape hatch.
type AllowedSnapshot struct {
	Step int `json:"step"`
	//esthera:allow checkpointcompat -- scratch rebuilt on restore, never persisted
	Scratch []float64
}
