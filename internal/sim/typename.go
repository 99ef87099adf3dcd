package sim

import (
	"fmt"
	"reflect"
	"sync"
)

// typeNames caches the display name of every message body type the
// accounting layer has seen (reflect.Type → string). Formatting a type
// name with fmt.Sprintf("%T", …) allocates on every call, which used to
// be the single largest per-send cost of both the deterministic engine
// and the concurrent runtime; the cache makes the steady-state lookup
// allocation-free. The wire codec's registry pre-populates it through
// RegisterTypeName so the accounting names and the codec's canonical
// self-description come from one table.
var typeNames sync.Map // reflect.Type (nil for nil bodies) → string

// TypeName returns the accounting name of a message body — exactly what
// fmt.Sprintf("%T", body) would produce — from a per-type cache. The
// first sight of a type formats and caches it; every later call is an
// allocation-free map read.
func TypeName(body any) string {
	t := reflect.TypeOf(body)
	if s, ok := typeNames.Load(t); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%T", body)
	typeNames.Store(t, s)
	return s
}

// RegisterTypeName seeds the type-name cache. The wire registry calls it
// for every registered message type so the engine's CountByType keys,
// the concurrent runtime's accounting and the codec's tag table all share
// one canonical name per type. name must equal fmt.Sprintf("%T", zero);
// TypeName would otherwise diverge from its documented contract.
func RegisterTypeName(zero any, name string) {
	typeNames.Store(reflect.TypeOf(zero), name)
}
