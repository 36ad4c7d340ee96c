// Copied from Go 1.24.0, src/crypto/internal/fips140/edwards25519/field/
// fe_amd64.go (the stubs generated beside fe_amd64.s), with Element renamed
// fieldElement. Copyright 2021 The Go Authors; use of this source code is
// governed by a BSD-style license that can be found in the GOLICENSE file.

//go:build !purego

package identity

// feMul sets out = a * b. It works like feMulGeneric.
//
//go:noescape
func feMul(out *fieldElement, a *fieldElement, b *fieldElement)

// feSquare sets out = a * a. It works like feSquareGeneric.
//
//go:noescape
func feSquare(out *fieldElement, a *fieldElement)
