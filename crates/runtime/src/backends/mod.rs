//! Backend implementations over each execution engine.

pub mod ambit;
pub mod roofline;
pub mod tesseract;

pub use ambit::AmbitBackend;
pub use roofline::{
    CpuBackend, GpuBackend, HmcLogicBackend, Pricing, RooflineBackend, StreamSiteBackend,
    StreamSiteConfig,
};
pub use tesseract::TesseractBackend;
