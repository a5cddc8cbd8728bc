(* Tests for avis_mavlink: checksum, payload codec, framing (including
   resynchronisation over garbage), the in-memory link, and the GCS-side
   mission-upload transaction. *)

open Avis_mavlink

(* Crc *)

let test_crc_known_properties () =
  (* X25 over the empty string is the seed. *)
  Alcotest.(check int) "empty" 0xFFFF (Crc.of_string "");
  (* Deterministic and byte-order sensitive. *)
  Alcotest.(check int) "stable" (Crc.of_string "hello") (Crc.of_string "hello");
  Alcotest.(check bool) "order matters" true
    (Crc.of_string "ab" <> Crc.of_string "ba")

let test_crc_incremental () =
  let whole = Crc.of_string "avis-checker" in
  let acc = Crc.accumulate_string (Crc.init ()) "avis-" in
  let acc = Crc.accumulate_string acc "checker" in
  Alcotest.(check int) "incremental equals one-shot" whole (Crc.value acc)

(* Buf *)

let test_buf_roundtrip () =
  let w = Buf.writer () in
  Buf.put_u8 w 0xAB;
  Buf.put_u16 w 0xBEEF;
  Buf.put_i32 w (-123456);
  Buf.put_f32 w 3.25;
  Buf.put_string w ~len:8 "hey";
  let r = Buf.reader (Buf.contents w) in
  Alcotest.(check int) "u8" 0xAB (Buf.get_u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Buf.get_u16 r);
  Alcotest.(check int) "i32" (-123456) (Buf.get_i32 r);
  Alcotest.(check (float 1e-9)) "f32" 3.25 (Buf.get_f32 r);
  Alcotest.(check string) "string" "hey" (Buf.get_string r ~len:8);
  Alcotest.(check int) "drained" 0 (Buf.remaining r)

let test_buf_truncated () =
  let r = Buf.reader "\x01" in
  ignore (Buf.get_u8 r);
  Alcotest.check_raises "truncated" Buf.Truncated (fun () -> ignore (Buf.get_u8 r))

let prop_buf_i32_roundtrip =
  QCheck.Test.make ~name:"i32 roundtrip" ~count:500
    (QCheck.int_range (-0x40000000) 0x3FFFFFFF)
    (fun v ->
      let w = Buf.writer () in
      Buf.put_i32 w v;
      Buf.get_i32 (Buf.reader (Buf.contents w)) = v)

let prop_buf_f32_roundtrip =
  QCheck.Test.make ~name:"f32 roundtrip (single precision)" ~count:500
    (QCheck.float_range (-1e6) 1e6)
    (fun v ->
      let w = Buf.writer () in
      Buf.put_f32 w v;
      let back = Buf.get_f32 (Buf.reader (Buf.contents w)) in
      Float.abs (back -. v) <= Float.abs v *. 1e-6 +. 1e-6)

(* Messages + frames *)

let sample_messages =
  [
    Msg.Heartbeat { custom_mode = 101; armed = true; system_status = 4 };
    Msg.Sys_status { voltage_mv = 12400; battery_remaining = 87 };
    Msg.Set_mode { custom_mode = 3 };
    Msg.Mission_count { count = 6 };
    Msg.Mission_request { seq = 2 };
    Msg.Mission_item
      { seq = 1; command = Msg.cmd_waypoint; param1 = 0.0; x = 47.39; y = 8.54; z = 20.0 };
    Msg.Mission_ack { accepted = true };
    Msg.Mission_current { seq = 3 };
    Msg.Command_long
      { command = Msg.cmd_takeoff; param1 = 20.0; param2 = 0.0; param3 = 1.5; param4 = -2.0 };
    Msg.Command_ack { command = Msg.cmd_takeoff; accepted = false };
    Msg.Global_position
      { time_boot_ms = 123456; lat_e7 = 473977420; lon_e7 = 85455940;
        relative_alt_mm = 20345; vx_cm = -120; vy_cm = 55; vz_cm = 0;
        heading_cdeg = 27000 };
    Msg.Statustext { severity = Msg.Critical; text = "failsafe: battery" };
  ]

let roundtrip msg =
  let encoded = Frame.encode ~seq:7 ~sysid:1 ~compid:1 msg in
  let decoder = Frame.decoder () in
  match Frame.feed decoder encoded with
  | [ frame ] -> frame.Frame.message
  | _ -> Alcotest.fail "expected exactly one frame"

let test_frame_roundtrip_all () =
  List.iter
    (fun msg ->
      let back = roundtrip msg in
      Alcotest.(check string) "same description" (Msg.describe msg) (Msg.describe back);
      Alcotest.(check bool) "same payload" true
        (Msg.encode_payload msg = Msg.encode_payload back))
    sample_messages

let test_frame_metadata () =
  let encoded = Frame.encode ~seq:42 ~sysid:9 ~compid:3 (Msg.Mission_count { count = 1 }) in
  let decoder = Frame.decoder () in
  match Frame.feed decoder encoded with
  | [ frame ] ->
    Alcotest.(check int) "seq" 42 frame.Frame.seq;
    Alcotest.(check int) "sysid" 9 frame.Frame.sysid;
    Alcotest.(check int) "compid" 3 frame.Frame.compid
  | _ -> Alcotest.fail "one frame expected"

let test_decoder_resync_over_garbage () =
  let encoded = Frame.encode ~seq:1 ~sysid:1 ~compid:1 (Msg.Mission_request { seq = 4 }) in
  let decoder = Frame.decoder () in
  let frames = Frame.feed decoder ("garbage!!" ^ encoded ^ "trailing") in
  Alcotest.(check int) "one frame recovered" 1 (List.length frames)

let test_decoder_rejects_bad_crc () =
  let encoded = Frame.encode ~seq:1 ~sysid:1 ~compid:1 (Msg.Mission_request { seq = 4 }) in
  let corrupted = Bytes.of_string encoded in
  let last = Bytes.length corrupted - 1 in
  Bytes.set corrupted last (Char.chr (Char.code (Bytes.get corrupted last) lxor 0xFF));
  let decoder = Frame.decoder () in
  let frames = Frame.feed decoder (Bytes.to_string corrupted) in
  Alcotest.(check int) "dropped" 0 (List.length frames);
  Alcotest.(check bool) "counted" true (Frame.dropped decoder >= 1)

(* A frame built by hand from its header and payload, checksummed with
   the id's CRC seed byte as [Frame.encode] does. *)
let raw_frame ~msg_id payload =
  (* Length, sequence, system id, component id, message id. *)
  let header =
    Printf.sprintf "%c\x05\x01\x01%c" (Char.chr (String.length payload)) (Char.chr msg_id)
  in
  let crc = Crc.accumulate_string (Crc.init ()) (header ^ payload) in
  let sum = Crc.value (Crc.accumulate crc (Char.chr (Msg.crc_extra msg_id))) in
  Printf.sprintf "%c%s%s%c%c" Frame.stx header payload
    (Char.chr (sum land 0xFF))
    (Char.chr (sum lsr 8))

(* A frame whose id the dialect does not know (23, which was PARAM_SET)
   passes the checksum, is counted and skipped whole, and the frame after
   it still decodes. *)
let test_decoder_skips_unknown_id () =
  let heartbeat = Msg.Heartbeat { custom_mode = 4; armed = false; system_status = 3 } in
  Alcotest.(check string) "hand-built frames check like encoded ones"
    (Frame.encode ~seq:5 ~sysid:1 ~compid:1 heartbeat)
    (raw_frame ~msg_id:0 (Msg.encode_payload heartbeat));
  (* PARAM_SET's old layout, a 16-byte name and a float. The name starts
     with a start byte, so skipping the frame byte by byte instead of
     whole would try to parse from inside it. *)
  let payload =
    let w = Buf.writer () in
    Buf.put_string w ~len:16 (String.make 1 Frame.stx ^ "RTL_ALT");
    Buf.put_f32 w 25.0;
    Buf.contents w
  in
  let decoder = Frame.decoder () in
  match
    Frame.feed decoder
      (raw_frame ~msg_id:23 payload ^ Frame.encode ~seq:6 ~sysid:1 ~compid:1 heartbeat)
  with
  | [ frame ] ->
    Alcotest.(check string) "the heartbeat" (Msg.describe heartbeat)
      (Msg.describe frame.Frame.message);
    Alcotest.(check int) "one dropped" 1 (Frame.dropped decoder)
  | frames -> Alcotest.failf "%d frames" (List.length frames)

let test_decoder_handles_partial_feeds () =
  let encoded = Frame.encode ~seq:1 ~sysid:1 ~compid:1 (Msg.Set_mode { custom_mode = 6 }) in
  let decoder = Frame.decoder () in
  let mid = String.length encoded / 2 in
  let first = Frame.feed decoder (String.sub encoded 0 mid) in
  Alcotest.(check int) "nothing yet" 0 (List.length first);
  let rest = Frame.feed decoder (String.sub encoded mid (String.length encoded - mid)) in
  Alcotest.(check int) "completed" 1 (List.length rest)

(* The decoder must survive arbitrary line noise: any byte soup interleaved
   with real frames may desynchronise it temporarily, but it must never
   raise, and once clean traffic resumes it must recover. The zero-byte
   flush forces any half-parsed false header (a stray 0xFE in the noise
   with a large length byte) through its CRC check before the final frame
   arrives. *)
let prop_decoder_never_raises_and_resyncs =
  QCheck.Test.make ~name:"decoder survives noise and resyncs" ~count:300
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 0 40) (int_range 0 255))
        (int_range 1 16))
    (fun (noise, chunk) ->
      let noise = String.init (List.length noise)
          (fun i -> Char.chr (List.nth noise i)) in
      let final = Msg.Mission_current { seq = 9 } in
      let stream =
        noise ^ String.make 300 '\x00'
        ^ Frame.encode ~seq:5 ~sysid:1 ~compid:1 final
      in
      let decoder = Frame.decoder () in
      let frames = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        frames := !frames @ Frame.feed decoder (String.sub stream !i n);
        i := !i + n
      done;
      match List.rev !frames with
      | last :: _ -> last.Frame.message = final
      | [] -> false)

(* Between frames, garbage that cannot alias a frame start (no 0xFE) is
   always skipped cleanly: every framed message is recovered, in order. *)
let prop_decoder_recovers_between_garbage =
  let non_stx = QCheck.Gen.(map Char.chr (int_range 0 0xFD)) in
  QCheck.Test.make ~name:"frames recovered around garbage" ~count:300
    QCheck.(
      triple
        (string_gen_of_size (QCheck.Gen.int_range 0 30) non_stx)
        (string_gen_of_size (QCheck.Gen.int_range 0 30) non_stx)
        (int_range 1 16))
    (fun (g1, g2, chunk) ->
      let m1 = Msg.Mission_request { seq = 3 }
      and m2 = Msg.Set_mode { custom_mode = 6 } in
      let stream =
        g1
        ^ Frame.encode ~seq:1 ~sysid:1 ~compid:1 m1
        ^ g2
        ^ Frame.encode ~seq:2 ~sysid:1 ~compid:1 m2
      in
      let decoder = Frame.decoder () in
      let frames = ref [] in
      let i = ref 0 in
      while !i < String.length stream do
        let n = min chunk (String.length stream - !i) in
        frames := !frames @ Frame.feed decoder (String.sub stream !i n);
        i := !i + n
      done;
      List.map (fun f -> f.Frame.message) !frames = [ m1; m2 ])

let prop_frames_concatenate =
  QCheck.Test.make ~name:"concatenated frames all decode" ~count:100
    (QCheck.int_range 1 8)
    (fun n ->
      let msgs = List.init n (fun i -> Msg.Mission_request { seq = i }) in
      let stream =
        String.concat ""
          (List.mapi (fun i m -> Frame.encode ~seq:i ~sysid:1 ~compid:1 m) msgs)
      in
      let decoder = Frame.decoder () in
      List.length (Frame.feed decoder stream) = n)

(* Link *)

let test_link_delivery () =
  let link = Link.create () in
  Link.send link Link.Gcs_end "hello";
  Alcotest.(check string) "not yet delivered" "" (Link.receive link Link.Vehicle_end);
  Link.step link;
  Alcotest.(check string) "delivered next step" "hello" (Link.receive link Link.Vehicle_end);
  Alcotest.(check string) "only once" "" (Link.receive link Link.Vehicle_end)

let test_link_direction () =
  let link = Link.create () in
  Link.send link Link.Gcs_end "to-vehicle";
  Link.step link;
  Alcotest.(check string) "wrong end empty" "" (Link.receive link Link.Gcs_end);
  Alcotest.(check string) "right end" "to-vehicle" (Link.receive link Link.Vehicle_end)

let test_link_jitter_preserves_order () =
  let rng = Avis_util.Rng.create 3 in
  let link = Link.create ~jitter:rng () in
  for i = 0 to 9 do
    Link.send link Link.Gcs_end (Printf.sprintf "%d;" i)
  done;
  for _ = 1 to 10 do
    Link.step link
  done;
  let received = Link.receive link Link.Vehicle_end in
  (* Order within the final drain must be the send order. *)
  let tokens = String.split_on_char ';' received |> List.filter (( <> ) "") in
  let sorted = List.sort compare (List.map int_of_string tokens) in
  Alcotest.(check (list int)) "all arrived in order" sorted
    (List.map int_of_string tokens)

(* Link faults *)

let drain_both link steps =
  let got = Buffer.create 64 in
  for _ = 1 to steps do
    Link.step link;
    Buffer.add_string got (Link.receive link Link.Vehicle_end)
  done;
  Buffer.contents got

let test_link_outage_window () =
  (* Outages are judged at send time: chunks sent inside the window vanish,
     chunks sent after it flow again. *)
  let link = Link.create ~outages:[ { Link.from_step = 0; until_step = 3 } ] () in
  Link.send link Link.Gcs_end "silenced";
  for _ = 1 to 3 do
    Link.step link
  done;
  Alcotest.(check string) "in-window chunk dropped" ""
    (Link.receive link Link.Vehicle_end);
  Link.send link Link.Gcs_end "audible";
  Link.step link;
  Alcotest.(check string) "post-window chunk delivered" "audible"
    (Link.receive link Link.Vehicle_end);
  Alcotest.(check int) "outage drop counted" 1 (Link.dropped link)

let test_link_snapshot_restores_fault_stream () =
  (* A jittered link forked mid-run must replay the identical delivery
     delays: the jitter RNG is part of the encoding. Drained one step at a
     time, since jitter moves chunks between steps but never reorders
     them. *)
  let link = Link.create ~jitter:(Avis_util.Rng.create 4) () in
  for i = 0 to 9 do
    Link.send link Link.Gcs_end (Printf.sprintf "pre-%d;" i)
  done;
  ignore (drain_both link 2);
  let fork =
    Avis_util.Codec.of_string (Link.decode ~outages:[])
      (Avis_util.Codec.to_string Link.encode link)
  in
  let tail l =
    for i = 0 to 9 do
      Link.send l Link.Gcs_end (Printf.sprintf "post-%d;" i)
    done;
    List.init 6 (fun _ -> drain_both l 1)
  in
  Alcotest.(check bool) "fork replays the original's future" true
    (tail fork = tail link)

let test_link_restore_substitutes_outage () =
  (* The fork operation: same encoded link, different outage schedule. Traffic
     already in flight still arrives; only post-fork sends are silenced. *)
  let link = Link.create () in
  Link.send link Link.Gcs_end "inflight;";
  let fork =
    Avis_util.Codec.of_string
      (Link.decode ~outages:[ { Link.from_step = 0; until_step = 1000 } ])
      (Avis_util.Codec.to_string Link.encode link)
  in
  Link.send fork Link.Gcs_end "suppressed;";
  Alcotest.(check string) "in-flight survives, new send dropped" "inflight;"
    (drain_both fork 4)

(* GCS transaction *)

let vehicle_responder link =
  (* A scripted vehicle end: answers MISSION_COUNT with sequential
     MISSION_REQUESTs and a final ACK. *)
  let decoder = Frame.decoder () in
  let expected = ref 0 in
  let total = ref 0 in
  let send msg = Link.send link Link.Vehicle_end (Frame.encode ~seq:0 ~sysid:1 ~compid:1 msg) in
  fun () ->
    List.iter
      (fun frame ->
        match frame.Frame.message with
        | Msg.Mission_count { count } ->
          total := count;
          expected := 0;
          send (Msg.Mission_request { seq = 0 })
        | Msg.Mission_item { seq; _ } when seq = !expected ->
          incr expected;
          if !expected >= !total then send (Msg.Mission_ack { accepted = true })
          else send (Msg.Mission_request { seq = !expected })
        | _ -> ())
      (Frame.feed decoder (Link.receive link Link.Vehicle_end))

let test_gcs_mission_upload () =
  let link = Link.create () in
  let gcs = Gcs.create link in
  let responder = vehicle_responder link in
  let items =
    List.init 4 (fun seq ->
        { Msg.seq; command = Msg.cmd_waypoint; param1 = 0.0; x = 0.0; y = 0.0; z = 10.0 })
  in
  Gcs.start_mission_upload gcs items;
  let steps = ref 0 in
  while Gcs.upload_state gcs = Gcs.Upload_in_progress && !steps < 100 do
    Link.step link;
    responder ();
    ignore (Gcs.poll gcs);
    incr steps
  done;
  Alcotest.(check bool) "upload completed" true (Gcs.upload_state gcs = Gcs.Upload_done)

let test_gcs_upload_busy () =
  let link = Link.create () in
  let gcs = Gcs.create link in
  Gcs.start_mission_upload gcs
    [ { Msg.seq = 0; command = Msg.cmd_takeoff; param1 = 0.0; x = 0.0; y = 0.0; z = 5.0 } ];
  Alcotest.check_raises "busy"
    (Invalid_argument "Gcs.start_mission_upload: upload already in progress")
    (fun () -> Gcs.start_mission_upload gcs [])

let test_gcs_telemetry_cache () =
  let link = Link.create () in
  let gcs = Gcs.create link in
  let send msg = Link.send link Link.Vehicle_end (Frame.encode ~seq:0 ~sysid:1 ~compid:1 msg) in
  send (Msg.Heartbeat { custom_mode = 5; armed = true; system_status = 4 });
  send
    (Msg.Global_position
       { time_boot_ms = 1000; lat_e7 = 473977420; lon_e7 = 85455940;
         relative_alt_mm = 12500; vx_cm = 100; vy_cm = 0; vz_cm = -50;
         heading_cdeg = 9000 });
  Link.step link;
  ignore (Gcs.poll gcs);
  Alcotest.(check bool) "armed" true (Gcs.armed gcs);
  Alcotest.(check bool) "mode" true (Gcs.vehicle_mode gcs = Some 5);
  Alcotest.(check (float 1e-6)) "alt" 12.5 (Gcs.relative_alt gcs);
  Alcotest.(check (float 1e-4)) "heading" 90.0 (Gcs.heading_deg gcs)

let test_gcs_command_ack () =
  let link = Link.create () in
  let gcs = Gcs.create link in
  Gcs.send_command gcs ~command:400 ~param1:1.0 ();
  Alcotest.(check bool) "no ack yet" true (Gcs.command_ack gcs ~command:400 = None);
  Link.send link Link.Vehicle_end
    (Frame.encode ~seq:0 ~sysid:1 ~compid:1 (Msg.Command_ack { command = 400; accepted = true }));
  Link.step link;
  ignore (Gcs.poll gcs);
  Alcotest.(check bool) "acked" true (Gcs.command_ack gcs ~command:400 = Some true)

(* GCS retransmission: transactions over lossy and dead links *)

let test_gcs_upload_retries_after_loss () =
  (* The first MISSION_COUNT is swallowed by a brief outage; the upload
     must complete anyway via backoff retransmission. *)
  let link = Link.create ~outages:[ { Link.from_step = 0; until_step = 2 } ] () in
  let gcs = Gcs.create link in
  let responder = vehicle_responder link in
  let items =
    List.init 3 (fun seq ->
        { Msg.seq; command = Msg.cmd_waypoint; param1 = 0.0; x = 0.0; y = 0.0; z = 10.0 })
  in
  Gcs.start_mission_upload gcs items;
  let i = ref 0 in
  while Gcs.upload_state gcs = Gcs.Upload_in_progress && !i < 400 do
    incr i;
    ignore (Gcs.tick gcs ~time:(0.1 *. float_of_int !i));
    Link.step link;
    responder ()
  done;
  Alcotest.(check bool) "count was lost" true (Link.dropped link >= 1);
  Alcotest.(check bool) "upload completed via retry" true
    (Gcs.upload_state gcs = Gcs.Upload_done)

let test_gcs_upload_times_out_on_dead_link () =
  let link =
    Link.create ~outages:[ { Link.from_step = 0; until_step = max_int } ] ()
  in
  let gcs = Gcs.create link in
  Gcs.start_mission_upload gcs
    [ { Msg.seq = 0; command = Msg.cmd_waypoint; param1 = 0.0; x = 0.0; y = 0.0; z = 10.0 } ];
  let time = ref 0.0 in
  while Gcs.upload_state gcs = Gcs.Upload_in_progress && !time < 40.0 do
    time := !time +. 0.05;
    ignore (Gcs.tick gcs ~time:!time);
    Link.step link
  done;
  Alcotest.(check bool) "explicit timeout" true
    (Gcs.upload_state gcs = Gcs.Upload_timed_out);
  (* The workload gives an upload 30 s; the transaction must resolve
     within that, not hang at the simulator's duration cap. *)
  Alcotest.(check bool) "inside the stepper deadline" true (!time < 30.0)

let command_responder link =
  let decoder = Frame.decoder () in
  let send msg =
    Link.send link Link.Vehicle_end (Frame.encode ~seq:0 ~sysid:1 ~compid:1 msg)
  in
  fun () ->
    List.iter
      (fun frame ->
        match frame.Frame.message with
        | Msg.Command_long { command; _ } ->
          send (Msg.Command_ack { command; accepted = true })
        | _ -> ())
      (Frame.feed decoder (Link.receive link Link.Vehicle_end))

let test_gcs_command_retries_after_loss () =
  let link = Link.create ~outages:[ { Link.from_step = 0; until_step = 2 } ] () in
  let gcs = Gcs.create link in
  let responder = command_responder link in
  Gcs.send_command gcs ~command:400 ~param1:1.0 ();
  let i = ref 0 in
  while Gcs.command_status gcs ~command:400 = Gcs.Tx_pending && !i < 200 do
    incr i;
    ignore (Gcs.tick gcs ~time:(0.1 *. float_of_int !i));
    Link.step link;
    responder ()
  done;
  Alcotest.(check bool) "first send was lost" true (Link.dropped link >= 1);
  Alcotest.(check bool) "acked via retry" true
    (Gcs.command_status gcs ~command:400 = Gcs.Tx_acked true)

let test_gcs_command_times_out_on_dead_link () =
  let link =
    Link.create ~outages:[ { Link.from_step = 0; until_step = max_int } ] ()
  in
  let gcs = Gcs.create link in
  Gcs.send_command gcs ~command:400 ~param1:1.0 ();
  let time = ref 0.0 in
  while Gcs.command_status gcs ~command:400 = Gcs.Tx_pending && !time < 20.0 do
    time := !time +. 0.05;
    ignore (Gcs.tick gcs ~time:!time);
    Link.step link
  done;
  Alcotest.(check bool) "explicit timeout" true
    (Gcs.command_status gcs ~command:400 = Gcs.Tx_timed_out);
  (* Commands get 10 s in the workload steppers. *)
  Alcotest.(check bool) "inside the stepper deadline" true (!time < 10.0)

let test_gcs_mode_confirmed_by_departure () =
  let link = Link.create () in
  let gcs = Gcs.create link in
  let heartbeat mode =
    Link.send link Link.Vehicle_end
      (Frame.encode ~seq:0 ~sysid:1 ~compid:1
         (Msg.Heartbeat { custom_mode = mode; armed = true; system_status = 4 }));
    Link.step link;
    ignore (Gcs.poll gcs)
  in
  heartbeat 5;
  Gcs.request_mode gcs 3;
  Alcotest.(check bool) "pending" true (Gcs.mode_status gcs = Gcs.Tx_pending);
  (* Still in the baseline mode: AUTO never appears as a heartbeat code, so
     confirmation means leaving the mode we were in at request time. *)
  heartbeat 5;
  Alcotest.(check bool) "same mode, still pending" true
    (Gcs.mode_status gcs = Gcs.Tx_pending);
  heartbeat 7;
  Alcotest.(check bool) "departure confirms" true
    (Gcs.mode_status gcs = Gcs.Tx_acked true)

let test_gcs_heartbeat_beacon () =
  let link = Link.create () in
  let gcs = Gcs.create link in
  let decoder = Frame.decoder () in
  let beats = ref 0 in
  for i = 1 to 35 do
    ignore (Gcs.tick gcs ~time:(0.1 *. float_of_int i));
    Link.step link;
    List.iter
      (fun f ->
        match f.Frame.message with
        | Msg.Heartbeat _ -> incr beats
        | _ -> ())
      (Frame.feed decoder (Link.receive link Link.Vehicle_end))
  done;
  (* 3.5 simulated seconds at 1 Hz. *)
  Alcotest.(check bool) "about one per second" true (!beats >= 3 && !beats <= 5)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "avis_mavlink"
    [
      ( "crc",
        [
          Alcotest.test_case "properties" `Quick test_crc_known_properties;
          Alcotest.test_case "incremental" `Quick test_crc_incremental;
        ] );
      ( "buf",
        [
          Alcotest.test_case "roundtrip" `Quick test_buf_roundtrip;
          Alcotest.test_case "truncated" `Quick test_buf_truncated;
          q prop_buf_i32_roundtrip;
          q prop_buf_f32_roundtrip;
        ] );
      ( "frame",
        [
          Alcotest.test_case "roundtrip all messages" `Quick test_frame_roundtrip_all;
          Alcotest.test_case "metadata" `Quick test_frame_metadata;
          Alcotest.test_case "resync over garbage" `Quick test_decoder_resync_over_garbage;
          Alcotest.test_case "bad crc dropped" `Quick test_decoder_rejects_bad_crc;
          Alcotest.test_case "unknown id dropped" `Quick test_decoder_skips_unknown_id;
          Alcotest.test_case "partial feeds" `Quick test_decoder_handles_partial_feeds;
          q prop_frames_concatenate;
          q prop_decoder_never_raises_and_resyncs;
          q prop_decoder_recovers_between_garbage;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery" `Quick test_link_delivery;
          Alcotest.test_case "direction" `Quick test_link_direction;
          Alcotest.test_case "jitter keeps order" `Quick test_link_jitter_preserves_order;
          Alcotest.test_case "outage window" `Quick test_link_outage_window;
          Alcotest.test_case "snapshot restores fault stream" `Quick
            test_link_snapshot_restores_fault_stream;
          Alcotest.test_case "restore substitutes outage" `Quick
            test_link_restore_substitutes_outage;
        ] );
      ( "gcs",
        [
          Alcotest.test_case "mission upload" `Quick test_gcs_mission_upload;
          Alcotest.test_case "upload busy" `Quick test_gcs_upload_busy;
          Alcotest.test_case "telemetry cache" `Quick test_gcs_telemetry_cache;
          Alcotest.test_case "command ack" `Quick test_gcs_command_ack;
          Alcotest.test_case "upload retries after loss" `Quick
            test_gcs_upload_retries_after_loss;
          Alcotest.test_case "upload times out on dead link" `Quick
            test_gcs_upload_times_out_on_dead_link;
          Alcotest.test_case "command retries after loss" `Quick
            test_gcs_command_retries_after_loss;
          Alcotest.test_case "command times out on dead link" `Quick
            test_gcs_command_times_out_on_dead_link;
          Alcotest.test_case "mode confirmed by departure" `Quick
            test_gcs_mode_confirmed_by_departure;
          Alcotest.test_case "heartbeat beacon" `Quick test_gcs_heartbeat_beacon;
        ] );
    ]
