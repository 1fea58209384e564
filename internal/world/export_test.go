package world

// UseTwin makes New give every world it builds the brute-force twin of the
// spatial layer (twin_test.go) until the returned function restores the
// production layer. New reads the choice, so a test that calls it must not
// run in parallel with another that builds worlds.
func UseTwin() (restore func()) {
	prod := newSpace
	newSpace = func(w *World) space { return newTwin(w) }
	return func() { newSpace = prod }
}
