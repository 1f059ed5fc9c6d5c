package feature

import "fmt"

// Descriptor is the serializable form of one registry-backed feature.
type Descriptor struct {
	Name     string `json:"name"`
	LeftCol  string `json:"left_col"`
	RightCol string `json:"right_col"`
	Func     string `json:"func"`
}

// Descriptors returns the serializable form of the feature set. Custom
// closure features (empty Func) cannot be serialized and yield an error —
// deploy those by code, not by spec.
func (s *Set) Descriptors() ([]Descriptor, error) {
	out := make([]Descriptor, 0, len(s.Features))
	for _, f := range s.Features {
		if f.Func == "" {
			return nil, fmt.Errorf("feature: %q is a custom feature and cannot be serialized", f.Name)
		}
		if _, ok := computeRegistry[f.Func]; !ok {
			return nil, fmt.Errorf("feature: %q references unknown similarity %q", f.Name, f.Func)
		}
		out = append(out, Descriptor{
			Name: f.Name, LeftCol: f.LeftCol, RightCol: f.RightCol, Func: f.Func,
		})
	}
	return out, nil
}

// FromDescriptors rebuilds a feature set from its serialized form.
func FromDescriptors(descs []Descriptor) (*Set, error) {
	set := &Set{}
	for _, d := range descs {
		sim, ok := computeRegistry[d.Func]
		if !ok {
			return nil, fmt.Errorf("feature: descriptor %q references unknown similarity %q", d.Name, d.Func)
		}
		name := d.Name
		if name == "" {
			name = d.LeftCol + "_" + d.Func
		}
		if err := set.Add(Feature{
			Name: name, LeftCol: d.LeftCol, RightCol: d.RightCol,
			Func: d.Func, Compute: sim.compute,
		}); err != nil {
			return nil, err
		}
	}
	return set, nil
}
