type t = {
  id : string;
  name : string;
  description : string;
  ratio : Dmf.Ratio.t;
  citation : string;
}

let pcr_percentages = [| 10.; 8.; 0.8; 0.8; 1.; 1.; 78.4 |]

let pcr_fluid_names =
  [|
    "reactant buffer";
    "dNTPs";
    "forward primer";
    "reverse primer";
    "DNA template";
    "optimase";
    "water";
  |]

let pcr ~d =
  if d = 4 then
    (* The paper's hand rounding (Section 4.1) keeps the buffer at 2/16
       rather than pushing all slack onto the water carrier. *)
    Dmf.Ratio.make ~names:pcr_fluid_names [| 2; 1; 1; 1; 1; 1; 9 |]
  else Dmf.Ratio.approximate ~names:pcr_fluid_names ~d pcr_percentages

let protocol id name description citation parts =
  { id; name; description; citation; ratio = Dmf.Ratio.of_string parts }

let ex1 =
  protocol "ex1" "PCR master-mix"
    "DNA-amplification master mixture of seven fluids on the scale 256"
    "Bio-Protocol 2013; mutationdiscovery.com [3, 14]" "26:21:2:2:3:3:199"

let ex2 =
  protocol "ex2" "One-Step Miniprep"
    "Phenol, chloroform and isoamylalcohol for plasmid DNA isolation"
    "Chowdhury, Nucleic Acids Res. 19(10) [4]" "128:123:5"

let ex3 =
  protocol "ex3" "Molecular Barcodes"
    "Ten-fluid mixture of the DNA barcoding protocol"
    "Lopez and Erickson, DNA Barcodes [12]" "25:5:5:5:5:13:13:25:1:159"

let ex4 =
  protocol "ex4" "Splinkerette PCR"
    "Five-fluid mixture for retroviral insertion-site sequencing"
    "Uren et al., Nature Protocols 4(5) [1]" "9:17:26:9:195"

let ex5 =
  protocol "ex5" "Miniprep (alkaline lysis)"
    "Plasmid DNA preparation by alkaline lysis with SDS"
    "Cold Spring Harbor Protocols 2006 [15]" "57:28:6:6:6:3:150"

let table2 = [ ex1; ex2; ex3; ex4; ex5 ]

let pcr16 =
  {
    id = "pcr16";
    name = "PCR master-mix (d=4)";
    description = "The paper's running example on the scale 16";
    citation = "[14]";
    ratio = pcr ~d:4;
  }

let all = pcr16 :: table2

(* [String.lowercase_ascii a = String.lowercase_ascii b], without
   building either: every request's ratio is looked up here first. *)
let equal_ci a b =
  let n = String.length a in
  n = String.length b
  &&
  let rec go i =
    i = n
    || Char.lowercase_ascii a.[i] = Char.lowercase_ascii b.[i] && go (i + 1)
  in
  go 0

let find id =
  let id = String.trim id in
  List.find_opt (fun p -> equal_ci p.id id) all
