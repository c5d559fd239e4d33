package core

import (
	"encoding/json"
	"fmt"
	"strings"

	"hsgf/internal/store"
)

// Artifact kinds this package persists through the store. The kind
// doubles as the generation filename prefix and the payload section
// name, and is cross-checked against the embedded meta section so a
// renamed file can never be decoded as the wrong artifact.
const (
	ArtifactGraphBin   = "graphbin"
	ArtifactCheckpoint = "checkpoint"
)

// artifactSchema versions the payload encodings beneath the envelope.
// The envelope's own FormatVersion guards the framing; this guards what
// the framed bytes mean.
const artifactSchema = 1

// artifactMeta is the first section of every snapshot: what the
// artifact is and which payload schema wrote it.
type artifactMeta struct {
	Artifact string `json:"artifact"`
	Schema   int    `json:"schema"`
}

// ArtifactSections frames payloads as one artifact snapshot: a meta
// section naming the artifact and its payload schema, then the payload
// sections in order. Every stored artifact uses this framing, so
// ArtifactPayloads can refuse a file renamed to the wrong kind.
func ArtifactSections(artifact string, schema int, payloads ...store.Section) ([]store.Section, error) {
	meta, err := json.Marshal(artifactMeta{Artifact: artifact, Schema: schema})
	if err != nil {
		return nil, err
	}
	return append([]store.Section{{Name: "meta", Payload: meta}}, payloads...), nil
}

// ArtifactSchema reads the meta section of an envelope framed by
// ArtifactSections, checks that it names artifact, and returns the
// payload schema that wrote it. A schema newer than schema is refused
// with ErrUnsupportedVersion before anything else about the layout is
// judged: a newer writer may lay its sections out differently, and its
// file is not corrupt, only unreadable here.
func ArtifactSchema(env *store.Envelope, artifact string, schema int) (int, error) {
	if len(env.Sections) == 0 {
		return 0, fmt.Errorf("%w: no sections", store.ErrCorrupt)
	}
	if env.Sections[0].Name != "meta" {
		return 0, fmt.Errorf("%w: first section %q, want meta", store.ErrCorrupt, env.Sections[0].Name)
	}
	var meta artifactMeta
	if err := json.Unmarshal(env.Sections[0].Payload, &meta); err != nil {
		return 0, fmt.Errorf("%w: undecodable meta section: %v", store.ErrCorrupt, err)
	}
	if meta.Artifact != artifact {
		return 0, fmt.Errorf("%w: artifact %q, want %q", store.ErrCorrupt, meta.Artifact, artifact)
	}
	if meta.Schema > schema {
		return 0, fmt.Errorf("%w: %s schema %d, reader supports <= %d",
			store.ErrUnsupportedVersion, artifact, meta.Schema, schema)
	}
	return meta.Schema, nil
}

// ArtifactPayloads validates an envelope framed by ArtifactSections
// against the expected artifact and payload section names, and returns
// the payloads in order. The meta section is checked first
// (ArtifactSchema), so a meta schema newer than schema is refused with
// ErrUnsupportedVersion whatever its layout. Then the section list must
// be exactly [meta, names...]: a snapshot with sections this reader does
// not understand is rejected (ErrCorrupt) rather than silently
// misparsed.
func ArtifactPayloads(env *store.Envelope, artifact string, schema int, names ...string) ([][]byte, error) {
	if _, err := ArtifactSchema(env, artifact, schema); err != nil {
		return nil, err
	}
	if len(env.Sections) != 1+len(names) {
		return nil, fmt.Errorf("%w: %d sections, want [meta %s]",
			store.ErrCorrupt, len(env.Sections), strings.Join(names, " "))
	}
	payloads := make([][]byte, len(names))
	for i, name := range names {
		sec := env.Sections[1+i]
		if sec.Name != name {
			return nil, fmt.Errorf("%w: unknown section %q, want %q", store.ErrCorrupt, sec.Name, name)
		}
		payloads[i] = sec.Payload
	}
	return payloads, nil
}

// artifactSections frames one payload as the canonical two-section
// snapshot of this package's artifacts: [meta, artifact].
func artifactSections(artifact string, payload []byte) ([]store.Section, error) {
	return ArtifactSections(artifact, artifactSchema, store.Section{Name: artifact, Payload: payload})
}

// artifactPayload returns the payload of a [meta, artifact] snapshot
// written by artifactSections.
func artifactPayload(env *store.Envelope, artifact string) ([]byte, error) {
	payloads, err := ArtifactPayloads(env, artifact, artifactSchema, artifact)
	if err != nil {
		return nil, err
	}
	return payloads[0], nil
}
