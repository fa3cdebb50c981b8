// Package lib is the export check's fixture.
package lib

import (
	"errors"
	"net/http"
)

// Table is a named counter.
type Table struct {
	// Name is read through String.
	Name string
	Hits int // only lib's tests read it
}

// New returns an empty table.
func New(name string) *Table { return &Table{Name: name} }

// String is called only through fmt.Stringer.
func (t *Table) String() string { return t.Name }

// Reset is called only by lib's own tests.
func (t *Table) Reset() { t.Name = "" }

// ErrClosed is what a WrapError wraps.
var ErrClosed = errors.New("lib: closed")

// WrapError wraps ErrClosed.
type WrapError struct{}

func (*WrapError) Error() string { return "lib: wrapped" }

// Unwrap is called only through errors.Is.
func (*WrapError) Unwrap() error { return ErrClosed }

// Handler serves nothing.
type Handler struct{}

// ServeHTTP is called only through http.Handler.
func (Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {}
