package store

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// Codec serializes one artifact class. Implementations must round-trip
// exactly: Decode(Encode(v)) must be semantically identical to v, and
// for numeric payloads bit-identical — the store's contract is that a
// warm request and the recompute it replaces produce byte-identical
// reports. Codecs must treat Decode input as untrusted (it survived a
// checksum, not a semantic check) and return an error rather than
// panic on malformed bytes; the store quarantines the entry.
type Codec interface {
	Encode(w io.Writer, v any) error
	Decode(r io.Reader) (any, error)
}

// Float64 returns the codec for plain float64 artifacts (the SA-table
// entry classes wrap it with their own validity check). Values are
// stored in Go's shortest round-trip decimal form, the same discipline
// satable's text snapshots rely on, so the decoded float is
// bit-identical to the encoded one.
func Float64() Codec { return float64Codec{} }

type float64Codec struct{}

func (float64Codec) Encode(w io.Writer, v any) error {
	f, ok := v.(float64)
	if !ok {
		return fmt.Errorf("store: float64 codec cannot encode %T", v)
	}
	_, err := io.WriteString(w, strconv.FormatFloat(f, 'g', -1, 64))
	return err
}

func (float64Codec) Decode(r io.Reader) (any, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return nil, fmt.Errorf("store: float64 codec: %w", err)
	}
	return f, nil
}

// JSONOf returns a codec for value-typed artifacts (sim.Counts,
// power.Report, ...): Decode returns a T. encoding/json marshals
// float64 in shortest round-trip form, so numeric fields survive the
// disk round trip bit-identically.
func JSONOf[T any]() Codec { return jsonCodec[T]{} }

type jsonCodec[T any] struct{}

func (jsonCodec[T]) Encode(w io.Writer, v any) error {
	if _, ok := v.(T); !ok {
		return fmt.Errorf("store: JSON codec for %T cannot encode %T", *new(T), v)
	}
	return json.NewEncoder(w).Encode(v)
}

func (jsonCodec[T]) Decode(r io.Reader) (any, error) {
	var out T
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("store: JSON codec: %w", err)
	}
	return out, nil
}

// JSONPtr returns a codec for pointer-typed artifacts (*flow.Result,
// ...): Decode returns a *T.
func JSONPtr[T any]() Codec { return jsonPtrCodec[T]{} }

type jsonPtrCodec[T any] struct{}

func (jsonPtrCodec[T]) Encode(w io.Writer, v any) error {
	if _, ok := v.(*T); !ok {
		return fmt.Errorf("store: JSON codec for %T cannot encode %T", new(T), v)
	}
	return json.NewEncoder(w).Encode(v)
}

func (jsonPtrCodec[T]) Decode(r io.Reader) (any, error) {
	out := new(T)
	if err := json.NewDecoder(r).Decode(out); err != nil {
		return nil, fmt.Errorf("store: JSON codec: %w", err)
	}
	return out, nil
}
