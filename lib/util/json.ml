(* The one JSON codec every run artifact goes through: the trace JSONL
   exporter, the audit certificate, the series, profile and metrics
   dumps, and the bench trajectory file.  Writers build a [t] and print
   it with [to_buffer]/[render]/[output_lines]; readers parse and then
   decode with [Decode], whose one error path names the field.  It lives
   in [esr_util], below every consumer. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if peek () = c then advance () else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    if
      !pos + String.length word <= n
      && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail ("bad literal " ^ word)
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let code = ref 0 in
              for i = 1 to 4 do
                code := (!code lsl 4) lor hex_digit s.[!pos + i]
              done;
              pos := !pos + 4;
              if !code < 0x80 then Buffer.add_char b (Char.chr !code)
              else fail "non-ASCII \\u escape unsupported"
          | _ -> fail "bad escape");
          advance ();
          loop ()
      | c ->
          Buffer.add_char b c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                members ((key, v) :: acc)
            | '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected , or }"
          in
          Obj (members [])
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elements (v :: acc)
            | ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ]"
          in
          Arr (elements [])
        end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> Num (parse_number ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with v -> Ok v | exception Parse_error m -> Error m

(* --- accessors --- *)

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_float = function Num v -> Some v | _ -> None
let to_int = function Num v -> Some (int_of_float v) | _ -> None
let to_string = function Str v -> Some v | _ -> None
let to_list = function Arr l -> Some l | _ -> None

(* --- writing --- *)

let int i = Num (float_of_int i)
let nullable f = function None -> Null | Some v -> f v

(* A string with nothing to escape, as every key and nearly every value
   is, is copied whole. *)
let rec plain s i =
  i = String.length s
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1)

let buf_add_escaped b s =
  if plain s 0 then Buffer.add_string b s
  else
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s

(* Shortest decimal representation that round-trips exactly; JSON numbers
   must not be "inf"/"nan" (callers only feed finite values, guarded). *)
let float_repr v =
  if not (Float.is_finite v) then "0"
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* Integral floats below 10^15 print without a fraction, so counters
   round-trip as JSON integers: the digits "%.0f" would print, read off
   the int (a negative zero keeps its sign). *)
let add_num b v =
  let i = int_of_float v in
  if Float.of_int i = v && i > -1_000_000_000_000_000 && i < 1_000_000_000_000_000
  then Buffer.add_string b (if i = 0 && Float.sign_bit v then "-0" else string_of_int i)
  else Buffer.add_string b (float_repr v)

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v -> add_num b v
  | Str s ->
      Buffer.add_char b '"';
      buf_add_escaped b s;
      Buffer.add_char b '"'
  | Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b item)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_key b k;
          to_buffer b v)
        fields;
      Buffer.add_char b '}'

and add_key b k =
  Buffer.add_char b '"';
  buf_add_escaped b k;
  Buffer.add_string b "\":"

let render v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

type line =
  | Same of string * t
  | Next of string * t
  | Rows of string * t Seq.t
  | Block of string * t Seq.t

let output_lines oc fields =
  let b = Buffer.create 4096 in
  let flush () =
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  let rows xs =
    Seq.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ",\n";
        to_buffer b x;
        flush ())
      xs
  in
  Buffer.add_char b '{';
  List.iteri
    (fun i field ->
      if i > 0 then Buffer.add_char b ',';
      match field with
      | Same (k, v) ->
          add_key b k;
          to_buffer b v
      | Next (k, v) ->
          Buffer.add_char b '\n';
          add_key b k;
          to_buffer b v
      | Rows (k, xs) ->
          Buffer.add_char b '\n';
          add_key b k;
          Buffer.add_char b '[';
          rows xs;
          Buffer.add_char b ']'
      | Block (k, xs) ->
          add_key b k;
          Buffer.add_string b "[\n";
          rows xs;
          Buffer.add_string b "\n]")
    fields;
  Buffer.add_string b "}\n";
  flush ()

(* --- typed decoding --- *)

module Decode = struct
  type json = t
  type 'a t = json -> 'a

  (* The path from the document root to the failing value, outermost
     first, and what is wrong with it. *)
  exception Fail of string list * string

  let fail msg = raise (Fail ([], msg))

  let expected what j =
    let got =
      match j with
      | Null -> "null"
      | Bool v -> string_of_bool v
      | Num v -> float_repr v
      | Str _ -> "a string"
      | Arr _ -> "an array"
      | Obj _ -> "an object"
    in
    fail (Printf.sprintf "expected %s, got %s" what got)

  (* Every integer up to 2^53 is a float; past it, neighbours collide. *)
  let max_exact = 9007199254740992.0

  let int = function
    | Num v when Float.is_integer v && Float.abs v <= max_exact ->
        int_of_float v
    | j -> expected "an integer" j

  let float = function Num v -> v | j -> expected "a number" j
  let string = function Str v -> v | j -> expected "a string" j
  let bool = function Bool v -> v | j -> expected "a boolean" j
  let nullable d = function Null -> None | j -> Some (d j)

  let list d = function
    | Arr items ->
        List.mapi
          (fun i x ->
            try d x
            with Fail (path, msg) ->
              raise (Fail (Printf.sprintf "[%d]" i :: path, msg)))
          items
    | j -> expected "an array" j

  let enum name values j =
    let s = string j in
    match List.find_opt (fun v -> String.equal (name v) s) values with
    | Some v -> v
    | None -> fail (Printf.sprintf "unknown name %S" s)

  let lookup name = function
    | Obj fields -> List.assoc_opt name fields
    | j -> expected "an object" j

  let within name d v =
    try d v with Fail (path, msg) -> raise (Fail (name :: path, msg))

  let field name d j =
    match lookup name j with
    | Some v -> within name d v
    | None -> raise (Fail ([ name ], "missing"))

  let field_or name default d j =
    match lookup name j with Some v -> within name d v | None -> default

  let run d j =
    match d j with
    | v -> Ok v
    | exception Fail (path, msg) ->
        let where =
          List.fold_left
            (fun acc seg ->
              if acc = "" || String.starts_with ~prefix:"[" seg then acc ^ seg
              else acc ^ "." ^ seg)
            "" path
        in
        Error (if where = "" then msg else where ^ ": " ^ msg)

  let of_string d s = Result.bind (parse s) (run d)
end
