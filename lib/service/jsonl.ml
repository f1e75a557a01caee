type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)

let write_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The primitive behind [Printf.sprintf "%.17g"], without the format
   interpreter's allocations. *)
external format_float : string -> float -> string = "caml_format_float"

let float_literal f =
  if not (Float.is_finite f) then
    invalid_arg "Jsonl: cannot encode a non-finite float";
  (* %.17g round-trips every double; force a marker so the parser reads
     the number back as a float, not an int. *)
  let s = format_float "%.17g" f in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let write_float buf f = Buffer.add_string buf (float_literal f)
let write_int buf i = Buffer.add_string buf (string_of_int i)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> write_int buf i
  | Float f -> write_float buf f
  | String s -> write_string buf s
  | List vs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ", ";
        write buf v)
      vs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        write_string buf k;
        Buffer.add_string buf ": ";
        write buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the input string.                   *)

exception Parse_error of string

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type cursor = { s : string; mutable pos : int }

(* [c.pos] is in the input and holds [ch]: the lexer looks ahead with
   this test (or [at_end] and [cur]) rather than a [char option], so
   lexing allocates nothing but what it returns. *)
let at_end c = c.pos >= String.length c.s
let cur c = String.unsafe_get c.s c.pos
let next_is c ch = c.pos < String.length c.s && String.unsafe_get c.s c.pos = ch

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    (not (at_end c))
    && match cur c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    advance c
  done

let expect c ch =
  if next_is c ch then advance c
  else if at_end c then
    parse_error "expected '%c' at offset %d, got end of input" ch c.pos
  else parse_error "expected '%c' at offset %d, got '%c'" ch c.pos (cur c)

let literal c word v =
  let n = String.length word in
  let rec matches i =
    i = n || (String.unsafe_get c.s (c.pos + i) = word.[i] && matches (i + 1))
  in
  if c.pos + n <= String.length c.s && matches 0 then begin
    c.pos <- c.pos + n;
    v
  end
  else parse_error "invalid literal at offset %d" c.pos

(* Decode a 4-hex-digit escape; surrogate pairs combine into one scalar. *)
let hex4 c =
  if c.pos + 4 > String.length c.s then
    parse_error "truncated \\u escape at offset %d" c.pos;
  let v = int_of_string_opt ("0x" ^ String.sub c.s c.pos 4) in
  match v with
  | Some v ->
    c.pos <- c.pos + 4;
    v
  | None -> parse_error "invalid \\u escape at offset %d" c.pos

let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

(* The escape-decoding loop, entered at the first backslash of a string
   whose bytes from [c.pos] on are still to be decoded into [buf]. *)
let rec string_tail c buf =
  if at_end c then parse_error "unterminated string"
  else
    match cur c with
    | '"' ->
      advance c;
      Buffer.contents buf
    | '\\' ->
      advance c;
      if at_end c then parse_error "unterminated escape";
      let ch = cur c in
      advance c;
      (match ch with
      | '"' -> Buffer.add_char buf '"'
      | '\\' -> Buffer.add_char buf '\\'
      | '/' -> Buffer.add_char buf '/'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'n' -> Buffer.add_char buf '\n'
      | 'r' -> Buffer.add_char buf '\r'
      | 't' -> Buffer.add_char buf '\t'
      | 'u' ->
        let u = hex4 c in
        let u =
          if u >= 0xD800 && u <= 0xDBFF then begin
            (* High surrogate: require the low half. *)
            expect c '\\';
            expect c 'u';
            let lo = hex4 c in
            if lo < 0xDC00 || lo > 0xDFFF then
              parse_error "unpaired surrogate at offset %d" c.pos;
            0x10000 + (((u - 0xD800) lsl 10) lor (lo - 0xDC00))
          end
          else if u >= 0xDC00 && u <= 0xDFFF then
            parse_error "unpaired surrogate at offset %d" c.pos
          else u
        in
        add_utf8 buf u
      | ch -> parse_error "invalid escape '\\%c'" ch);
      string_tail c buf
    | ch ->
      advance c;
      Buffer.add_char buf ch;
      string_tail c buf

(* A string without escapes is one [String.sub]; the first backslash
   hands the rest to the decoding loop. *)
let parse_string c =
  expect c '"';
  let start = c.pos in
  let n = String.length c.s in
  let rec scan i =
    if i >= n then begin
      c.pos <- n;
      parse_error "unterminated string"
    end
    else
      match String.unsafe_get c.s i with
      | '"' ->
        c.pos <- i + 1;
        String.sub c.s start (i - start)
      | '\\' ->
        let buf = Buffer.create (i - start + 16) in
        Buffer.add_substring buf c.s start (i - start);
        c.pos <- i;
        string_tail c buf
      | _ -> scan (i + 1)
  in
  scan start

let is_digit c = (not (at_end c)) && match cur c with '0' .. '9' -> true | _ -> false

let digits c =
  let start = c.pos in
  while is_digit c do
    advance c
  done;
  if c.pos = start then parse_error "malformed number at offset %d" c.pos

(* Up to 18 digits always fit a native int, so they need no
   [int_of_string]; longer integers may not, and take its verdict. *)
let small_int s start stop =
  let neg = String.unsafe_get s start = '-' in
  let first = if neg then start + 1 else start in
  let v = ref 0 in
  for i = first to stop - 1 do
    v := (!v * 10) + (Char.code (String.unsafe_get s i) - 48)
  done;
  if neg then - !v else !v

let parse_number c =
  let start = c.pos in
  let is_float = ref false in
  if next_is c '-' then advance c;
  let int_start = c.pos in
  digits c;
  let int_digits = c.pos - int_start in
  if next_is c '.' then begin
    is_float := true;
    advance c;
    digits c
  end;
  if next_is c 'e' || next_is c 'E' then begin
    is_float := true;
    advance c;
    if next_is c '+' || next_is c '-' then advance c;
    digits c
  end;
  if !is_float then Float (float_of_string (String.sub c.s start (c.pos - start)))
  else if int_digits <= 18 then Int (small_int c.s start c.pos)
  else
    let text = String.sub c.s start (c.pos - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text) (* out of native int range *)

(* The bodies of arrays and objects, after their opening bracket: [f]
   consumes one element (or, for an object, the value of member [k]). *)
let rec elements_from c f =
  f ();
  skip_ws c;
  if next_is c ',' then begin
    advance c;
    elements_from c f
  end
  else if next_is c ']' then advance c
  else parse_error "expected ',' or ']' at offset %d" c.pos

let elements c f =
  skip_ws c;
  if next_is c ']' then advance c else elements_from c f

let rec bindings_from c f =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  f k;
  skip_ws c;
  if next_is c ',' then begin
    advance c;
    bindings_from c f
  end
  else if next_is c '}' then advance c
  else parse_error "expected ',' or '}' at offset %d" c.pos

let bindings c f =
  skip_ws c;
  if next_is c '}' then advance c else bindings_from c f

(* One lexer for both walks: [value] builds the tree, [skip] checks the
   same grammar, with the same errors at the same offsets, and keeps
   nothing. *)
let rec value c =
  skip_ws c;
  if at_end c then parse_error "unexpected end of input";
  match cur c with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> String (parse_string c)
  | '[' ->
    advance c;
    let acc = ref [] in
    elements c (fun () -> acc := value c :: !acc);
    List (List.rev !acc)
  | '{' ->
    advance c;
    let acc = ref [] in
    bindings c (fun k -> acc := (k, value c) :: !acc);
    Obj (List.rev !acc)
  | '-' | '0' .. '9' -> parse_number c
  | ch -> parse_error "unexpected character '%c' at offset %d" ch c.pos

let rec skip c =
  skip_ws c;
  if at_end c then ignore (value c)
  else
    match cur c with
    | '"' -> ignore (parse_string c)
    | '-' | '0' .. '9' -> ignore (parse_number c)
    | '[' ->
      advance c;
      elements c (fun () -> skip c)
    | '{' ->
      advance c;
      bindings c (fun _ -> skip c)
    | _ -> ignore (value c)

let members c f =
  skip_ws c;
  if next_is c '{' then begin
    advance c;
    bindings c f;
    true
  end
  else begin
    skip c;
    false
  end

let decode s f =
  let c = { s; pos = 0 } in
  match f c with
  | v ->
    skip_ws c;
    if c.pos < String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" c.pos)
    else Ok v
  | exception Parse_error msg -> Error msg

let of_string s = decode s value

(* [compare] (not [=]) so that NaN equals itself and the codec's
   round-trip property holds on every float it can print. *)
let equal a b = Stdlib.compare a b = 0

(* ------------------------------------------------------------------ *)
(* Pretty printing                                                     *)

let rec pp ppf = function
  | Null -> Format.pp_print_string ppf "null"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.pp_print_string ppf (float_literal f)
  | String s ->
    let buf = Buffer.create (String.length s + 2) in
    write_string buf s;
    Format.pp_print_string ppf (Buffer.contents buf)
  | List vs ->
    Format.fprintf ppf "@[<hv 2>[%a]@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         pp)
      vs
  | Obj kvs ->
    Format.fprintf ppf "@[<hv 2>{@ %a@;<1 -2>}@]"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
         (fun ppf (k, v) -> Format.fprintf ppf "@[<h>%s: %a@]" k pp v))
      kvs

(* ------------------------------------------------------------------ *)
(* Bounded line reading                                                *)

type line =
  | Line of string
  | Tail of string
  | Oversized of int
  | Eof

let max_line_bytes = 1 lsl 20

(* The runtime primitive behind [Stdlib.input_line]: the length of the
   next line, newline included, when a newline lies within the
   channel's buffer; otherwise minus the bytes buffered, once the buffer
   is full or the input has ended (so 0 at end of input). *)
external scan_line : in_channel -> int = "caml_ml_input_scan_line"

(* Consume [n] buffered bytes of a line over the bound. *)
let discard ic n =
  let spill = Bytes.create (min n 4096) in
  let rec go n =
    if n > 0 then begin
      let k = min n (Bytes.length spill) in
      really_input ic spill 0 k;
      go (n - k)
    end
  in
  go n

let concat = function [ s ] -> s | chunks -> String.concat "" (List.rev chunks)

(* [chunks] holds the line's first [len] bytes, newest first, while
   [len <= max_bytes]; past the bound bytes are only counted, so the
   stream stays line-synchronized for the caller. *)
let read_line ?(max_bytes = max_line_bytes) ic =
  let rec loop chunks len =
    let n = scan_line ic in
    if n > 0 then begin
      let total = len + n - 1 in
      if total > max_bytes then begin
        discard ic n;
        Oversized total
      end
      else begin
        let last = really_input_string ic (n - 1) in
        ignore (input_char ic);
        Line (concat (last :: chunks))
      end
    end
    else if n = 0 then
      if len = 0 then Eof
      else if len > max_bytes then Oversized len
      else Tail (concat chunks)
    else if len - n > max_bytes then begin
      discard ic (-n);
      loop [] (len - n)
    end
    else loop (really_input_string ic (-n) :: chunks) (len - n)
  in
  loop [] 0

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None
let to_str = function String s -> Some s | _ -> None
let to_list = function List vs -> Some vs | _ -> None
