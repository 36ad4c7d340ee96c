// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the GOLICENSE file.

// Copied from Go 1.24.0, src/crypto/internal/fips140/edwards25519/field/
// fe_amd64_noasm.go, with Element renamed fieldElement.

//go:build !amd64 || purego

package identity

func feMul(v, x, y *fieldElement) { feMulGeneric(v, x, y) }

func feSquare(v, x *fieldElement) { feSquareGeneric(v, x) }
