package analysis

import (
	"go/ast"
	"reflect"
	"regexp"
	"strings"
)

// snapshotPackages are the packages whose snapshot/checkpoint structs
// form the persisted wire format (serve.Checkpoint and everything it
// transitively embeds).
var snapshotPackages = map[string]bool{
	"esthera/internal/serve":   true,
	"esthera/internal/filter":  true,
	"esthera/internal/kernels": true,
	"esthera/internal/rng":     true,
	"esthera/internal/cluster": true,
	"esthera/internal/shard":   true,
}

// snapshotName matches the type names that participate in a wire
// format: kernels.Snapshot, serve.Checkpoint, rng.State, and the JSON
// bodies of the shard agent's control endpoints (shard.ExportMsg,
// shard.RestoreMsg, ...).
var snapshotName = regexp.MustCompile(`(Snapshot|Checkpoint|State|Msg)$`)

// CheckpointAnalyzer guards the wire formats: every exported field of
// a snapshot/checkpoint/control-message struct must carry an explicit
// wire tag — a json tag with a wire name (frozen independently of
// Go-side renames), or `json:"-"` for state serialized out of band (the
// base64 float encoding) or deliberately excluded. An untagged exported
// field would silently join (or, renamed, silently leave) the wire
// format, breaking the bit-exact checkpoint/restore and shard control
// contracts between versions.
var CheckpointAnalyzer = &Analyzer{
	Name: "checkpointcompat",
	Doc: "flag exported fields of snapshot/checkpoint/wire-message structs that lack an " +
		"explicit json wire tag, so wire formats only ever change deliberately",
	Filter: func(pkgPath string) bool { return snapshotPackages[pkgPath] },
	Run:    runCheckpointCompat,
}

func runCheckpointCompat(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || !snapshotName.MatchString(ts.Name.Name) {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					// Embedded field: its own struct is checked at its
					// declaration (if it is snapshot-named); embedding
					// without a tag is flagged like a named field.
					if !hasWireTag(field) {
						pass.Reportf(field.Pos(),
							"embedded field of snapshot struct %s has no json tag: checkpoint wire fields must be declared explicitly (use a wire name or json:\"-\")", ts.Name.Name)
					}
					continue
				}
				for _, name := range field.Names {
					if !name.IsExported() {
						continue
					}
					if !hasWireTag(field) {
						pass.Reportf(name.Pos(),
							"exported field %s of snapshot struct %s has no json tag: new wire fields need an explicit wire name (or json:\"-\" with out-of-band encoding) and restore-side handling", name.Name, ts.Name.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// hasWireTag reports whether the field carries an explicit json wire
// tag (the checkpoint and control-message formats).
func hasWireTag(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	_, ok := reflect.StructTag(strings.Trim(field.Tag.Value, "`")).Lookup("json")
	return ok
}
