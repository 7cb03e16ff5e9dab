//! The laws every [`Pack`] type must obey, shared by the fixed corpus in
//! `pack_laws.rs` and the generated values in `codec_proptests.rs`.

use std::fmt::Debug;

use cdi_serve::cdipack::{decode, encode, Pack};

/// Round-trip equality, byte-identical re-encode, totality under every
/// truncation point and every single-byte flip (decode returns — an error
/// or some value — and never panics), and rejection of one trailing byte.
pub fn assert_pack_laws<T: Pack + PartialEq + Debug>(value: &T) {
    let bytes = encode(value);
    let back: T = decode(&bytes).expect("own encoding decodes");
    assert_eq!(&back, value, "decode(encode(v)) must be v");
    assert_eq!(encode(&back), bytes, "re-encoding must be byte-identical");

    for cut in 0..bytes.len() {
        let _ = decode::<T>(&bytes[..cut]);
    }
    let mut mutated = bytes.clone();
    for i in 0..mutated.len() {
        mutated[i] ^= 0x5A;
        let _ = decode::<T>(&mutated);
        mutated[i] ^= 0x5A;
    }

    let mut trailing = bytes;
    trailing.push(0);
    assert!(decode::<T>(&trailing).is_err(), "a trailing byte must be rejected");
}
