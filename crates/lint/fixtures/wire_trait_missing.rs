//! Seeded violation: a codec written as a trait impl forgets a variant.
//! `impl Wire for Signal` decodes `Halt` behind a wildcard arm; a trait
//! impl must be paired with its enum exactly like an inherent one.
//! Expected: 1 × wire-completeness.

pub trait Wire: Sized {
    fn encode_wire(&self, out: &mut Vec<u8>);
    fn decode_wire(buf: &[u8]) -> Option<Self>;
}

pub enum Signal {
    Go,
    Wait { ticks: u8 },
    Halt,
}

impl Wire for Signal {
    fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            Signal::Go => out.push(0),
            Signal::Wait { ticks } => out.extend_from_slice(&[1, *ticks]),
            Signal::Halt => out.push(2),
        }
    }

    fn decode_wire(buf: &[u8]) -> Option<Signal> {
        match buf.first()? {
            0 => Some(Signal::Go),
            _ => Some(Signal::Wait {
                ticks: *buf.get(1)?,
            }),
        }
    }
}
