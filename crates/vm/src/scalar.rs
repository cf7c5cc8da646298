//! The numeric element trait shared by the VM and the tiers above it.
//!
//! `msc-exec`'s `Scalar` is a supertrait of this one; the trait lives here
//! (the lowest crate in the execution stack) so the VM can be generic over
//! `f32`/`f64` without depending on the executor crate. The VM only
//! multiplies and adds; `to_f64` keys the constant pool by bit pattern.

use std::ops::{Add, Div, Mul, Sub};

pub trait VmScalar:
    Copy
    + Send
    + Sync
    + Default
    + PartialOrd
    + PartialEq
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + 'static
{
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
}

macro_rules! impl_vm_scalar {
    ($t:ty) => {
        impl VmScalar for $t {
            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }
        }
    };
}

impl_vm_scalar!(f32);
impl_vm_scalar!(f64);
