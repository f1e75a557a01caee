(* A small JSON reader and writer of the benchmark's own.  The serving
   workloads read the daemons' NDJSON answers with it, so the benchmark
   does not depend on the codec of the program it measures. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
      | _ -> ()
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char b e
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 128 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?'
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec fields acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  match
    let v = value () in
    skip ();
    if !pos <> n then fail "trailing bytes";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let field k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let path keys v =
  List.fold_left (fun acc k -> Option.bind acc (field k)) (Some v) keys

let num keys v = match path keys v with Some (Num f) -> Some f | _ -> None

let int keys v = Option.map int_of_float (num keys v)

let bool keys v = match path keys v with Some (Bool b) -> Some b | _ -> None

let str keys v = match path keys v with Some (Str s) -> Some s | _ -> None

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else if Float.is_finite f then Printf.sprintf "%.17g" f
    else invalid_arg "Json.to_string: non-finite number"
  | Str s -> escape s
  | Arr vs -> "[" ^ String.concat ", " (List.map to_string vs) ^ "]"
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) fields)
    ^ "}"
