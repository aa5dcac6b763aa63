//! Link-layer tokens.
//!
//! XS1 links carry eight-bit *tokens*: data tokens (a payload byte) and
//! control tokens (route management: END, PAUSE, acknowledgements). A
//! 32-bit channel word travels as four data tokens, most significant byte
//! first.

use crate::instr::ControlToken;
use std::fmt;

/// One eight-bit link token.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Token {
    /// A payload byte.
    Data(u8),
    /// A control token (END, PAUSE, ...).
    Ctrl(ControlToken),
}

impl Token {
    /// True for control tokens.
    pub const fn is_ctrl(self) -> bool {
        matches!(self, Token::Ctrl(_))
    }

    /// The payload byte of a data token.
    pub fn data(self) -> Option<u8> {
        match self {
            Token::Data(b) => Some(b),
            Token::Ctrl(_) => None,
        }
    }

    /// True if this token closes the route it travelled on (wormhole
    /// release): END or PAUSE.
    pub fn closes_route(self) -> bool {
        matches!(
            self,
            Token::Ctrl(ControlToken::END) | Token::Ctrl(ControlToken::PAUSE)
        )
    }
}

/// The snapshot wire form: a tag byte (0 = data, 1 = control) in the low
/// byte, the token's value in the high byte, so a little-endian `u16`
/// lays them out tag first.
impl From<Token> for u16 {
    fn from(token: Token) -> u16 {
        match token {
            Token::Data(b) => u16::from(b) << 8,
            Token::Ctrl(ct) => u16::from(ct.0) << 8 | 1,
        }
    }
}

/// Decodes the snapshot wire form of `From<Token> for u16`; any tag
/// other than 0 or 1 is rejected.
impl TryFrom<u16> for Token {
    type Error = &'static str;

    fn try_from(wire: u16) -> Result<Token, &'static str> {
        let value = (wire >> 8) as u8;
        match wire & 0xFF {
            0 => Ok(Token::Data(value)),
            1 => Ok(Token::Ctrl(ControlToken(value))),
            _ => Err("token tag out of range"),
        }
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Data(b) => write!(f, "d{b:02x}"),
            Token::Ctrl(ct) => write!(f, "ct:{ct}"),
        }
    }
}

/// Splits a word into four data tokens, most significant byte first.
///
/// ```
/// use swallow_isa::token::{word_to_tokens, Token};
/// let t = word_to_tokens(0x1234_5678);
/// assert_eq!(t[0], Token::Data(0x12));
/// assert_eq!(t[3], Token::Data(0x78));
/// ```
pub fn word_to_tokens(word: u32) -> [Token; 4] {
    [
        Token::Data((word >> 24) as u8),
        Token::Data((word >> 16) as u8),
        Token::Data((word >> 8) as u8),
        Token::Data(word as u8),
    ]
}

/// Reassembles a word from four payload bytes (MSB first).
pub fn bytes_to_word(bytes: [u8; 4]) -> u32 {
    u32::from_be_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_form_round_trips_tag_first() {
        for token in [
            Token::Data(0),
            Token::Data(0x7F),
            Token::Ctrl(ControlToken::END),
        ] {
            let wire = u16::from(token);
            assert_eq!(Token::try_from(wire), Ok(token));
            let tag = u8::from(token.is_ctrl());
            assert_eq!(wire.to_le_bytes()[0], tag, "{token}");
        }
        assert_eq!(u16::from(Token::Data(0xAB)).to_le_bytes(), [0, 0xAB]);
        assert!(Token::try_from(0x0102).is_err());
    }

    #[test]
    fn word_round_trip() {
        for word in [0u32, 1, 0xDEAD_BEEF, u32::MAX, 0x0102_0304] {
            let tokens = word_to_tokens(word);
            let bytes = [
                tokens[0].data().expect("data"),
                tokens[1].data().expect("data"),
                tokens[2].data().expect("data"),
                tokens[3].data().expect("data"),
            ];
            assert_eq!(bytes_to_word(bytes), word);
        }
    }

    #[test]
    fn route_closing_tokens() {
        assert!(Token::Ctrl(ControlToken::END).closes_route());
        assert!(Token::Ctrl(ControlToken::PAUSE).closes_route());
        assert!(!Token::Ctrl(ControlToken::ACK).closes_route());
        assert!(!Token::Data(1).closes_route());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Token::Data(0xAB).to_string(), "dab");
        assert_eq!(Token::Ctrl(ControlToken::END).to_string(), "ct:end");
    }
}
