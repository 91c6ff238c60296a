package msg

// Test support: the registry listing that only tests call. No binary links
// it; TestEveryFunctionReached exempts this file.

// AllTags returns every assigned tag in ascending order.
// TestRoundTripEveryRegisteredType iterates it to prove the wire codec
// covers the full registry, and TestRegistryDense pins its shape.
func AllTags() []Tag {
	tags := make([]Tag, 0, tagEnd-1)
	for t := Tag(1); t < tagEnd; t++ {
		if tagNames[t] != "" {
			tags = append(tags, t)
		}
	}
	return tags
}
