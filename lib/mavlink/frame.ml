type frame = { seq : int; sysid : int; compid : int; message : Msg.t }

let stx = '\xFE'

let encode ~seq ~sysid ~compid msg =
  let payload = Msg.encode_payload msg in
  let msg_id = Msg.msg_id msg in
  let len = String.length payload in
  if len > 255 then invalid_arg "Frame.encode: payload too long";
  let header =
    let b = Buffer.create 6 in
    Buffer.add_char b stx;
    Buffer.add_char b (Char.chr len);
    Buffer.add_char b (Char.chr (seq land 0xFF));
    Buffer.add_char b (Char.chr (sysid land 0xFF));
    Buffer.add_char b (Char.chr (compid land 0xFF));
    Buffer.add_char b (Char.chr (msg_id land 0xFF));
    Buffer.contents b
  in
  (* The checksum covers everything after STX plus the crc_extra byte. *)
  let crc = Crc.init () in
  let crc = Crc.accumulate_string crc (String.sub header 1 (String.length header - 1)) in
  let crc = Crc.accumulate_string crc payload in
  let crc = Crc.accumulate crc (Char.chr (Msg.crc_extra msg_id)) in
  let sum = Crc.value crc in
  let out = Buffer.create (String.length header + len + 2) in
  Buffer.add_string out header;
  Buffer.add_string out payload;
  Buffer.add_char out (Char.chr (sum land 0xFF));
  Buffer.add_char out (Char.chr ((sum lsr 8) land 0xFF));
  Buffer.contents out

type decoder = { mutable buffer : string; mutable dropped : int }

let decoder () = { buffer = ""; dropped = 0 }

let encode_decoder b d =
  Avis_util.Codec.w_string b d.buffer;
  Avis_util.Codec.w_int b d.dropped

let decode_decoder r =
  let buffer = Avis_util.Codec.r_string r in
  let dropped = Avis_util.Codec.r_int r in
  { buffer; dropped }

let dropped d = d.dropped

(* Attempt to parse one frame at the head of the buffer. Returns
   [`Frame (frame, consumed)], [`Skip n] to drop n garbage/bad bytes, or
   [`Need_more]. *)
let parse_head d =
  let buf = d.buffer in
  let len_buf = String.length buf in
  if len_buf = 0 then `Need_more
  else if buf.[0] <> stx then
    (* Resynchronise: drop everything up to the next STX. *)
    match String.index_opt buf stx with
    | Some i -> `Skip i
    | None -> `Skip len_buf
  else if len_buf < 6 then `Need_more
  else
    let payload_len = Char.code buf.[1] in
    let total = 6 + payload_len + 2 in
    if len_buf < total then `Need_more
    else
      let seq = Char.code buf.[2] in
      let sysid = Char.code buf.[3] in
      let compid = Char.code buf.[4] in
      let msg_id = Char.code buf.[5] in
      let payload = String.sub buf 6 payload_len in
      let crc = Crc.init () in
      let crc = Crc.accumulate_string crc (String.sub buf 1 (4 + payload_len + 1)) in
      let crc = Crc.accumulate crc (Char.chr (Msg.crc_extra msg_id)) in
      let expect = Crc.value crc in
      let got =
        Char.code buf.[6 + payload_len] lor (Char.code buf.[6 + payload_len + 1] lsl 8)
      in
      if expect <> got then begin
        d.dropped <- d.dropped + 1;
        (* Skip just the STX so an embedded real frame can still be found. *)
        `Skip 1
      end
      else begin
        match Msg.decode_payload ~msg_id payload with
        | Some message -> `Frame ({ seq; sysid; compid; message }, total)
        | None ->
          d.dropped <- d.dropped + 1;
          `Skip total
      end

let feed d chunk =
  (* Nothing buffered and nothing new: skip the copy and the parse. *)
  if String.length chunk = 0 && String.length d.buffer = 0 then []
  else begin
    d.buffer <- d.buffer ^ chunk;
    let rec drain acc =
      match parse_head d with
      | `Need_more -> List.rev acc
      | `Skip n ->
        d.buffer <- String.sub d.buffer n (String.length d.buffer - n);
        if n = 0 then List.rev acc else drain acc
      | `Frame (f, consumed) ->
        d.buffer <- String.sub d.buffer consumed (String.length d.buffer - consumed);
        drain (f :: acc)
    in
    drain []
  end
