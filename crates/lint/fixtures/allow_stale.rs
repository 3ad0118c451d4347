//! Annotations must suppress something: the first excuses a fused
//! product, the second sits above plain arithmetic and is stale.

fn fused(a: f64, b: f64, c: f64) -> f64 {
    // alid-lint: allow(no-fma) -- corpus demonstration of a justified fused product
    a.mul_add(b, c)
}

fn plain(a: f64, b: f64, c: f64) -> f64 {
    // alid-lint: allow(no-fma) -- corpus demonstration of an annotation its code outlived
    a * b + c
}
