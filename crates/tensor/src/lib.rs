//! # forms-tensor
//!
//! Dense tensor substrate for the FORMS (ISCA 2021) reproduction.
//!
//! The FORMS paper trains DNNs in PyTorch; this crate is the from-scratch
//! replacement for the tensor layer of that stack: shapes, dense `f32`
//! tensors, the linear algebra needed by convolutional networks (matmul,
//! im2col/col2im), the exact integer GEMM the crossbar engines serve from, weight initializers, and the fixed-point formats that the
//! accelerator front-end uses for activations and weights.
//!
//! # Example
//!
//! ```
//! use forms_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fixed;
mod igemm;
mod init;
mod linalg;
mod shape;
mod stats;
mod tensor;

pub use fixed::{FixedPoint, FixedSpec, QuantizedTensor};
pub use igemm::igemm;
pub use init::{kaiming_uniform, uniform, xavier_uniform};
pub use linalg::{col2im, im2col, Conv2dGeometry};
pub use shape::Shape;
pub use stats::{mean, quantile, std_dev, variance};
pub use tensor::Tensor;
