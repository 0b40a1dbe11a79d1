//! The benchmark's only wire-format code: a raw protocol-v5 client built on
//! `ensembler_serve::protocol`, so a pipelined load generator needs one
//! sender thread, one receiver thread and one connection at any depth. A new
//! frame layout changes this file alone.

use ensembler_serve::protocol::{
    decode_tagged, encode_tagged, read_message, write_message, DEFAULT_MAX_PAYLOAD_BYTES,
    FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES, PROTOCOL_VERSION, REQUEST_ID_BYTES,
    TAGGED_WIRE_VERSION,
};
use ensembler_serve::{ErrorCode, Hello, Message};
use ensembler_tensor::{QTensorBatch, Tensor};
use std::io::Read;
use std::net::{SocketAddr, TcpStream};

/// What the server answered to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// The per-body feature maps.
    Maps(Vec<Tensor>),
    /// A typed admission rejection (`Overloaded`).
    Overloaded,
    /// Any other typed error frame.
    Error(String),
}

/// Opens a multiplexed connection: handshake on `stream`, then returns the
/// write half and a read half.
pub fn connect(addr: SocketAddr) -> Result<(TcpStream, TcpStream), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let hello = Message::Hello(Hello::legacy(PROTOCOL_VERSION));
    write_message(&mut stream, &hello).map_err(|e| format!("hello: {e}"))?;
    match read_message(&mut stream, DEFAULT_MAX_PAYLOAD_BYTES) {
        Ok(Message::HelloAck(ack)) if ack.version >= TAGGED_WIRE_VERSION => {}
        Ok(other) => return Err(format!("handshake did not negotiate v5: {other:?}")),
        Err(e) => return Err(format!("handshake: {e}")),
    }
    let read = stream.try_clone().map_err(|e| e.to_string())?;
    Ok((stream, read))
}

/// The tagged frame asking for every body's output on `transmitted`.
pub fn encode_request(id: u64, transmitted: &Tensor) -> Vec<u8> {
    encode_tagged(
        &Message::ServerOutputsRequest {
            transmitted: transmitted.clone(),
        },
        Some(id),
    )
}

/// Reads one complete frame (header, request id, payload, checksum) without
/// decoding it, so decoding can be timed on its own.
pub fn read_frame(reader: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut frame = vec![0u8; FRAME_HEADER_BYTES];
    reader.read_exact(&mut frame)?;
    let version = u16::from_be_bytes([frame[4], frame[5]]);
    let payload = u32::from_be_bytes([frame[8], frame[9], frame[10], frame[11]]);
    if payload > DEFAULT_MAX_PAYLOAD_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("declared payload of {payload} bytes is over the limit"),
        ));
    }
    let id = if version >= TAGGED_WIRE_VERSION {
        REQUEST_ID_BYTES
    } else {
        0
    };
    frame.resize(
        FRAME_HEADER_BYTES + id + payload as usize + FRAME_TRAILER_BYTES,
        0,
    );
    reader.read_exact(&mut frame[FRAME_HEADER_BYTES..])?;
    Ok(frame)
}

/// Decodes a response frame into its request id and reply. A frame that
/// does not decode (bad checksum, truncation) or carries no id is an error:
/// the connection can no longer be trusted.
pub fn decode_reply(frame: &[u8]) -> Result<(u64, Reply), String> {
    let tagged = decode_tagged(frame).map_err(|e| e.to_string())?;
    let id = tagged
        .request_id
        .ok_or_else(|| "untagged frame on a multiplexed connection".to_string())?;
    let reply = match tagged.message {
        Message::ServerOutputsResponse { maps } => Reply::Maps(maps),
        Message::Error(wire) if wire.code == ErrorCode::Overloaded => Reply::Overloaded,
        Message::Error(wire) => Reply::Error(wire.message),
        other => Reply::Error(format!("unexpected {:?}", other.message_type())),
    };
    Ok((id, reply))
}

/// The encoded response frame carrying `maps`, as the server sends it.
pub fn encode_response(id: u64, maps: &[Tensor]) -> Vec<u8> {
    encode_tagged(
        &Message::ServerOutputsResponse {
            maps: maps.to_vec(),
        },
        Some(id),
    )
}

/// Frame sizes `(request, response)` of one f32 range leg.
pub fn range_leg_bytes(
    lo: usize,
    hi: usize,
    transmitted: &Tensor,
    maps: &[Tensor],
) -> (usize, usize) {
    let request = Message::ServerOutputsRequestRange {
        lo: lo as u32,
        hi: hi as u32,
        transmitted: transmitted.clone(),
    };
    (
        encode_tagged(&request, Some(0)).len(),
        encode_response(0, maps).len(),
    )
}

/// Frame sizes `(request, response)` of one int8 range leg.
pub fn range_leg_bytes_q(
    lo: usize,
    hi: usize,
    transmitted: &QTensorBatch,
    maps: &[QTensorBatch],
) -> (usize, usize) {
    let request = Message::ServerOutputsRequestRangeQ {
        lo: lo as u32,
        hi: hi as u32,
        transmitted: transmitted.clone(),
    };
    let response = Message::ServerOutputsResponseQ {
        maps: maps.to_vec(),
    };
    (
        encode_tagged(&request, Some(0)).len(),
        encode_tagged(&response, Some(0)).len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_raw_reader() {
        let maps = vec![Tensor::full(&[1, 4], 0.5), Tensor::full(&[1, 4], -1.0)];
        let frame = encode_response(42, &maps);
        let read = read_frame(&mut frame.as_slice()).unwrap();
        assert_eq!(read, frame);
        assert_eq!(decode_reply(&read).unwrap(), (42, Reply::Maps(maps)));
        let request = encode_request(7, &Tensor::ones(&[1, 2, 2, 2]));
        assert_eq!(read_frame(&mut request.as_slice()).unwrap(), request);
    }

    #[test]
    fn a_corrupted_frame_does_not_decode() {
        let mut frame = encode_response(1, &[Tensor::full(&[1, 4], 0.5)]);
        let last_payload_byte = frame.len() - FRAME_TRAILER_BYTES - 1;
        frame[last_payload_byte] ^= 0x01;
        assert!(decode_reply(&frame).is_err());
    }
}
