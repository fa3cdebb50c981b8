// Command fixture uses package lib the way a binary does: by name, and
// through the interfaces errors.Is, fmt and net/http call.
package main

import (
	"errors"
	"fmt"
	"net/http"

	"fixture/internal/lib"
)

func main() {
	t := lib.New("t")
	fmt.Println(t)
	err := fmt.Errorf("open: %w", &lib.WrapError{})
	fmt.Println(errors.Is(err, lib.ErrClosed))
	http.Handle("/", lib.Handler{})
}
