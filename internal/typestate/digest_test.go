package typestate

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// fill gives every field reachable from v a non-zero value named after
// its path: one element per slice, one entry per map.
func fill(t *testing.T, v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(path)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(len(path)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fill(t, v.Index(0), path+"[0]")
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k := reflect.New(v.Type().Key()).Elem()
		fill(t, k, path+"#key")
		e := reflect.New(v.Type().Elem()).Elem()
		fill(t, e, path+"#elem")
		v.SetMapIndex(k, e)
	default:
		t.Fatalf("%s: a %s field; teach Spec.Digest and this test to hash it", path, v.Kind())
	}
}

// mutations calls f once per way to change one part of v, each with a
// function that makes the change: every string, integer and bool, the
// length of every slice, and every map's key set, keys and values,
// recursing into structs, slice elements and map values.
func mutations(t *testing.T, v reflect.Value, path string, f func(path string, mutate func())) {
	switch v.Kind() {
	case reflect.String:
		f(path, func() { v.SetString(v.String() + "'") })
	case reflect.Bool:
		f(path, func() { v.SetBool(!v.Bool()) })
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f(path, func() { v.SetInt(v.Int() + 1) })
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			mutations(t, v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	case reflect.Slice:
		f(path+" length", func() { v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem()))) })
		for i := 0; i < v.Len(); i++ {
			mutations(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), f)
		}
	case reflect.Map:
		f(path+" new key", func() {
			k := reflect.New(v.Type().Key()).Elem()
			fill(t, k, path+"#new")
			v.SetMapIndex(k, reflect.Zero(v.Type().Elem()))
		})
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			kp := fmt.Sprintf("%s[%v]", path, k)
			f(kp+" key", func() {
				e := v.MapIndex(k)
				nk := reflect.New(k.Type()).Elem()
				nk.Set(k)
				mutations(t, nk, "", func(_ string, mutate func()) { mutate() })
				v.SetMapIndex(k, reflect.Value{})
				v.SetMapIndex(nk, e)
			})
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			mutations(t, e, kp, func(p string, mutate func()) {
				f(p, func() { mutate(); v.SetMapIndex(k, e) })
			})
		}
	default:
		t.Fatalf("%s: a %s field; teach Spec.Digest and this test to change it", path, v.Kind())
	}
}

// TestSpecDigestCoversEveryField changes each part of a fully populated
// Spec in turn — the nested FSM, ConstFact and CallRule fields, slice
// lengths and map entries included — and requires each change to change
// the digest. Spec's fields are walked by reflection, so a field added to
// Spec but not hashed by Digest fails here.
func TestSpecDigestCoversEveryField(t *testing.T) {
	full := func() *Spec {
		s := &Spec{}
		fill(t, reflect.ValueOf(s).Elem(), "Spec")
		return s
	}
	base := full().Digest()
	var paths []string
	mutations(t, reflect.ValueOf(full()).Elem(), "Spec", func(p string, _ func()) { paths = append(paths, p) })
	for i, p := range paths {
		s := full()
		var muts []func()
		mutations(t, reflect.ValueOf(s).Elem(), "Spec", func(_ string, mutate func()) { muts = append(muts, mutate) })
		muts[i]()
		if reflect.DeepEqual(s, full()) {
			t.Fatalf("%s: the mutation left the spec unchanged", p)
		}
		if s.Digest() == base {
			t.Errorf("changing %s leaves the digest unchanged", p)
		}
	}
	if len(paths) < 40 {
		t.Errorf("only %d mutations; the walk missed fields", len(paths))
	}
}

// TestSpecDigestIgnoresMapOrder requires equal specs to hash equally
// however their FSM maps were built: every built-in spec against a copy
// whose transition maps are refilled in reverse key order, and against
// itself on repeated calls (Go randomizes map iteration).
func TestSpecDigestIgnoresMapOrder(t *testing.T) {
	for _, chk := range AllCheckers() {
		s, ok := chk.(*Spec)
		if !ok {
			continue
		}
		cp := *s
		cp.Machine.Transitions = make(map[State]map[Event]State)
		froms := make([]State, 0, len(s.Machine.Transitions))
		for from := range s.Machine.Transitions {
			froms = append(froms, from)
		}
		sort.Slice(froms, func(i, j int) bool { return froms[i] > froms[j] })
		for _, from := range froms {
			row := s.Machine.Transitions[from]
			evs := make([]Event, 0, len(row))
			for ev := range row {
				evs = append(evs, ev)
			}
			sort.Slice(evs, func(i, j int) bool { return evs[i] > evs[j] })
			cp.Machine.Transitions[from] = make(map[Event]State)
			for _, ev := range evs {
				cp.Machine.Transitions[from][ev] = row[ev]
			}
		}
		want := s.Digest()
		for i := 0; i < 20; i++ {
			if got := cp.Digest(); got != want {
				t.Fatalf("%s: digest %#x of a reordered copy, want %#x", s.Name(), got, want)
			}
		}
	}
}
