//go:build !race

package webserver

// poisonBody leaves a handed-back body as it is outside race builds (see
// poison_race.go).
func poisonBody([]byte) {}
