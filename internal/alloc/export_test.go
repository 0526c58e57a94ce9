package alloc

// NewDeepened is newAllocator for the external tests, which import packages
// that themselves import this one.
var NewDeepened = newAllocator
