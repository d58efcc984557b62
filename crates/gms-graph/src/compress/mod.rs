//! The encodings behind [`CompressedCsr`](crate::CompressedCsr)
//! (Appendix B): varint coding of integers and gap coding of sorted
//! neighborhoods, the paper's fine-grained encoding and neighborhood
//! transformation that the resident gap form is built from.

pub mod gap;
pub mod varint;
