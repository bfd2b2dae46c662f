//! # forms-reram
//!
//! Behavioural ReRAM crossbar simulation for the FORMS (ISCA 2021)
//! reproduction.
//!
//! The paper evaluates on modelled hardware (VTEAM device model, NVSIM
//! arrays). This crate is the Rust stand-in at the same behavioural level:
//!
//! - [`CellSpec`] — multi-bit conductance cells with a linear
//!   code-to-conductance map,
//! - [`VteamDevice`] — a VTEAM-inspired threshold write model used to
//!   program cells with voltage pulses,
//! - [`Crossbar`] — an analog array computing column currents
//!   `i = Gᵀ·v` over arbitrary row windows (fragments),
//! - [`BitSlicer`] — weight-magnitude bit-slicing across
//!   `weight_bits / cell_bits` cells,
//! - [`Adc`] / [`Dac`] — converter transfer functions with saturation,
//! - [`LogNormalVariation`] / [`StuckAtFault`] — the device non-idealities
//!   behind the paper's Table VI.
//!
//! With ideal devices and sufficient ADC resolution the analog pipeline
//! reproduces integer dot products *exactly*; the property tests pin that
//! down, and the variation experiments then perturb away from it.
//!
//! # Example
//!
//! ```
//! use forms_reram::{Adc, CellSpec, Crossbar};
//!
//! let spec = CellSpec::new(2, 1.0, 61.0);
//! let mut xbar = Crossbar::new(4, 4, spec);
//! xbar.program_codes(&[3, 0, 1, 2, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
//! let currents = xbar.column_currents(&[1.0, 0.0, 1.0, 0.0], 0..4);
//! // Column 0 sees cells with codes 3 and 1 active: 3 + 1 = 4 units.
//! let adc = Adc::ideal_for(4, &spec);
//! assert_eq!(adc.convert(currents[0], &spec), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitslice;
mod converters;
mod crossbar;
mod device;
mod faults;
mod irdrop;
mod noise;
mod packing;
mod programming;
mod variation;

pub use bitslice::BitSlicer;
pub use converters::{Adc, Dac};
pub use crossbar::{CellSpec, Crossbar};
pub use device::{VteamDevice, VteamParams};
pub use faults::{FaultCampaign, FaultReport};
pub use irdrop::IrDropModel;
pub use noise::CurrentNoise;
pub use packing::{
    for_each_set_bit, pack_bit_planes, pack_tile_bit_planes, plane_ones, plane_words,
};
pub use programming::{program_physical, ArrayProgrammer, ProgrammingReport};
pub use variation::{LogNormalVariation, StuckAtFault, StuckAtKind};
