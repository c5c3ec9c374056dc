package model

// SetDegenerateSlotHashes turns the degenerate-hash seam on or off (see
// degenerateSlotHash in arena.go). Tests that turn it on must not run in
// parallel with others and must turn it off again.
func SetDegenerateSlotHashes(on bool) { degenerateSlotHash = on }
