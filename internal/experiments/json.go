package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"strconv"
)

// MarshalText renders a Scheme by name wherever JSON holds one, as a value
// or as a map key.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// loadKey renders a load fraction as a stable JSON key ("20%", "40%", ...).
func loadKey(load float64) string { return fmt.Sprintf("%g%%", load*100) }

// WriteJSON encodes any experiment result as indented JSON. The layout is
// encoding/json's — exported fields in declaration order, map keys sorted —
// with two rules for the two things a result holds that encoding/json
// refuses: a NaN (no sample: an empty size bin, a mean over flows none of
// which completed) is written as null, and a float-keyed map, which in a
// result is always keyed by offered load, gets loadKey's keys.
func WriteJSON(w io.Writer, res Printable) error {
	var raw, out bytes.Buffer
	if err := encodeJSON(&raw, reflect.ValueOf(res)); err != nil {
		return err
	}
	if err := json.Indent(&out, raw.Bytes(), "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err := w.Write(out.Bytes())
	return err
}

// encodeJSON writes v compactly, descending through containers itself so
// that WriteJSON's two rules reach every float and map; everything else is
// encoding/json's.
func encodeJSON(b *bytes.Buffer, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Map, reflect.Slice:
		if v.IsNil() {
			b.WriteString("null")
			return nil
		}
	}
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.IsNaN(v.Float()) {
			b.WriteString("null")
			return nil
		}
	case reflect.Pointer, reflect.Interface:
		return encodeJSON(b, v.Elem())
	case reflect.Struct:
		var ms []jsonMember
		for i, t := 0, v.Type(); i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				ms = append(ms, jsonMember{f.Name, v.Field(i)})
			}
		}
		return encodeJSONObject(b, ms)
	case reflect.Map:
		ms := make([]jsonMember, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			ms = append(ms, jsonMember{jsonKey(it.Key()), it.Value()})
		}
		sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
		return encodeJSONObject(b, ms)
	case reflect.Slice, reflect.Array:
		b.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			if err := encodeJSON(b, v.Index(i)); err != nil {
				return err
			}
		}
		b.WriteByte(']')
		return nil
	}
	leaf, err := json.Marshal(v.Interface())
	b.Write(leaf)
	return err
}

// jsonMember is one name-value pair of an object: a struct field or a map
// entry.
type jsonMember struct {
	name string
	v    reflect.Value
}

// encodeJSONObject writes the members in the order given.
func encodeJSONObject(b *bytes.Buffer, ms []jsonMember) error {
	b.WriteByte('{')
	for i, m := range ms {
		if i > 0 {
			b.WriteByte(',')
		}
		name, _ := json.Marshal(m.name) // a string always marshals
		b.Write(name)
		b.WriteByte(':')
		if err := encodeJSON(b, m.v); err != nil {
			return err
		}
	}
	b.WriteByte('}')
	return nil
}

// jsonKey renders a map key: the name for a Scheme, a load for a float, and
// otherwise what encoding/json writes for the string or integer it is.
func jsonKey(k reflect.Value) string {
	if s, ok := k.Interface().(Scheme); ok {
		return s.String()
	}
	switch k.Kind() {
	case reflect.Float64:
		return loadKey(k.Float())
	case reflect.String:
		return k.String()
	}
	return strconv.FormatInt(k.Int(), 10)
}
