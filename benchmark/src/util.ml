(* Host clock, sample statistics and small helpers shared by the run and
   compare commands. *)

(* A command-line or input-file error: reported with the usage text and
   exit code 2, never as an uncaught exception. *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(* Monotonic host nanoseconds (bechamel's CLOCK_MONOTONIC stub): immune
   to wall-clock steps, and [noalloc], so reading it around every engine
   step adds no allocation to the measured loop. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) computes them, so a spread printed here is
   the spread anyone re-deriving it from the JSONL lines will get.  A
   single sample is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

(* Growable int buffer for per-call host timings: millions of engine
   steps in a traced run, kept unboxed. *)
module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4096 0; len = 0 }

  let push t x =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  (* Nearest-rank percentile, [p] in [0, 100]; 0 when empty. *)
  let percentile t p =
    if t.len = 0 then 0
    else begin
      let a = Array.sub t.data 0 t.len in
      Array.sort Int.compare a;
      let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int t.len)) in
      a.(Stdlib.min (t.len - 1) (Stdlib.max 0 (rank - 1)))
    end
end

(* The checkout's commit, read from [.git] without running git; "unknown"
   outside a git working tree (the benchmark also runs from exported
   sources). *)
let git_revision () =
  let read file =
    try
      let ic = open_in file in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Some (String.trim (input_line ic)))
    with Sys_error _ | End_of_file -> None
  in
  let packed ref_name =
    try
      let ic = open_in ".git/packed-refs" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match String.split_on_char ' ' (input_line ic) with
            | [ sha; r ] when r = ref_name -> Some sha
            | _ -> scan ()
          in
          try scan () with End_of_file -> None)
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match read (Filename.concat ".git" r) with
          | Some sha -> sha
          | None -> Option.value (packed r) ~default:"unknown")
      | _ -> head)
