let warn ~var ~value ~want ~using =
  Printf.eprintf
    "[avis] warning: ignoring invalid %s=%S (want %s); using %s\n%!" var value
    want using

let parse_with ~of_string ~valid ~var ~default ~want ~render () =
  match Sys.getenv_opt var with
  | None -> default
  | Some v -> (
    match of_string (String.trim v) with
    | Some x when valid x -> x
    | Some _ | None ->
      warn ~var ~value:v ~want ~using:(render default);
      default)

let positive_int ~var ~default () =
  parse_with ~of_string:int_of_string_opt
    ~valid:(fun n -> n >= 1)
    ~var ~default ~want:"a positive integer"
    ~render:string_of_int ()

(* A MiB count is valid when its byte count is still an [int]. *)
let budget_bytes ?mb ~arg ~var ~default_mb () =
  let valid n = n >= 1 && n <= max_int / 1_048_576 in
  let want =
    Printf.sprintf "a positive integer up to %d" (max_int / 1_048_576)
  in
  let mb =
    match mb with
    | Some mb when valid mb -> mb
    | Some mb ->
      warn ~var:arg ~value:(string_of_int mb) ~want
        ~using:(string_of_int default_mb);
      default_mb
    | None ->
      parse_with ~of_string:int_of_string_opt ~valid ~var ~default:default_mb
        ~want ~render:string_of_int ()
  in
  mb * 1_048_576

let positive_float ~var ~default () =
  parse_with ~of_string:float_of_string_opt
    ~valid:(fun f -> f > 0.0 && Float.is_finite f)
    ~var ~default ~want:"a positive finite number"
    ~render:(Printf.sprintf "%g") ()

let bool_of_string v =
  match String.lowercase_ascii v with
  | "1" | "true" | "on" | "yes" -> Some true
  | "0" | "false" | "off" | "no" -> Some false
  | _ -> None

let flag ~var () =
  parse_with ~of_string:bool_of_string
    ~valid:(fun _ -> true)
    ~var ~default:false ~want:"1|true|on|yes or 0|false|off|no"
    ~render:string_of_bool ()
