(* Minimal JSON parser/printer. The repo has no JSON dependency and
   its schemas are small, so a ~150-line recursive descent keeps the
   wire protocol's debug framing and the scrape endpoint parseable
   from OCaml tests without adding one.

   Floats print as %.17g — enough significant digits that every
   finite IEEE double survives print→parse exactly (float_of_string
   rounds correctly). Non-finite floats use the bare tokens inf /
   -inf / nan, accepted on parse as an extension. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos fmt =
  Printf.ksprintf (fun s -> raise (Parse_error (Printf.sprintf "%s at %d" s pos))) fmt

let float_literal f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else Printf.sprintf "%.17g" f

(* ------------------------------------------------------------------ *)
(* Parser *)

type state = { s : string; mutable pos : int }

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some got when got = c -> st.pos <- st.pos + 1
  | Some got -> fail st.pos "expected %C, got %C" c got
  | None -> fail st.pos "expected %C, got end of input" c

let literal st word v =
  let n = String.length word in
  if
    st.pos + n <= String.length st.s
    && String.sub st.s st.pos n = word
  then begin
    st.pos <- st.pos + n;
    v
  end
  else fail st.pos "bad literal (expected %s)" word

let parse_string_body st =
  (* Called past the opening quote. *)
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st.pos "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' -> begin
      if st.pos >= String.length st.s then fail st.pos "unterminated escape";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | '/' -> Buffer.add_char b '/'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'u' ->
        if st.pos + 4 > String.length st.s then fail st.pos "short \\u escape";
        let hex = String.sub st.s st.pos 4 in
        st.pos <- st.pos + 4;
        let code =
          match int_of_string_opt ("0x" ^ hex) with
          | Some v -> v
          | None -> fail st.pos "bad \\u escape %S" hex
        in
        (* UTF-8 encode the code point (surrogates passed through as
           3-byte sequences — enough for the ASCII-centric schemas
           here). *)
        if code < 0x80 then Buffer.add_char b (Char.chr code)
        else if code < 0x800 then begin
          Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
        else begin
          Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
        end
      | c -> fail st.pos "bad escape \\%C" c);
      go ()
    end
    | c when Char.code c < 0x20 -> fail (st.pos - 1) "raw control char in string"
    | c ->
      Buffer.add_char b c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  match float_of_string_opt tok with
  | Some v -> Num v
  | None -> fail start "bad number %S" tok

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st.pos "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        expect st '"';
        let key = parse_string_body st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          fields ((key, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          Obj (List.rev ((key, v) :: acc))
        | _ -> fail st.pos "expected ',' or '}'"
      in
      fields []
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          items (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          Arr (List.rev (v :: acc))
        | _ -> fail st.pos "expected ',' or ']'"
      in
      items []
    end
  | Some '"' ->
    st.pos <- st.pos + 1;
    Str (parse_string_body st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' ->
    (* "null" or the "nan" extension. *)
    if
      st.pos + 4 <= String.length st.s && String.sub st.s st.pos 4 = "null"
    then begin
      st.pos <- st.pos + 4;
      Null
    end
    else literal st "nan" (Num Float.nan)
  | Some 'i' -> literal st "inf" (Num Float.infinity)
  | Some '-'
    when st.pos + 1 < String.length st.s && st.s.[st.pos + 1] = 'i' ->
    st.pos <- st.pos + 1;
    literal st "inf" (Num Float.neg_infinity)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st.pos "unexpected %C" c

let parse s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st.pos "trailing garbage";
  v

let parse_opt s = try Some (parse s) with Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* Printer *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
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
  Buffer.contents b

let short_float f =
  if Float.is_finite f then Printf.sprintf "%.6g" f else "null"

let to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num f -> Buffer.add_string b (float_literal f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          go x)
        xs;
      Buffer.add_char b ']'
    | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\":";
          go x)
        fields;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 2. ** 53. ->
    Some (Float.to_int f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
